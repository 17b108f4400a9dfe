//! Golden-baseline store and its byte-exact comparison.
//!
//! A *golden* is a committed CSV under `goldens/<driver>/<table>.csv`:
//! the blessed output of one figure table. Because the harness is
//! deterministic (fixed quick grids, fixed base seed, thread-invariant
//! collection), a fresh run's [`Table::to_csv`] must equal its golden
//! byte for byte, and any difference is a behavioural change in some
//! simulation layer, or in how a table is rendered. A table that differs
//! is one [`Drift`], which names the first place it parts from its
//! golden: the row and column with both cells, or the header or
//! row-count change. That is a far better regression signal than a
//! distant unit-test failure.
//!
//! Regenerate goldens by running the comparison path with blessing
//! enabled (`OPERA_BLESS=1` for the tier-1 test, `--bless` for
//! `opera golden` and `opera spot`); on an unmodified tree a bless is
//! byte-idempotent.

use crate::json::{self, quoted};
use crate::output::{list, RunFlags, RunMeta};
use crate::table::Table;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Provenance manifest stamped into each `goldens/<driver>/` on bless
/// (`manifest.json`): which commit the bless ran on and which flags and
/// tables it recorded. [`compare_driver`] checks the flags and table
/// list — a golden blessed under different flags, or covering a table
/// set the driver no longer produces, is *stale* and reported as drift;
/// the commit is provenance for reviewers, not part of the comparison
/// (a bless necessarily runs before the commit that includes it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenManifest {
    /// `git rev-parse --short HEAD` of the tree the bless ran on
    /// (`unknown` outside a git checkout).
    pub commit: String,
    /// The identity of the blessing run (`"k"` is written only when
    /// set; no committed golden sets it).
    pub flags: RunFlags,
    /// Blessed table names, sorted.
    pub tables: Vec<String>,
}

impl GoldenManifest {
    /// File name of the manifest within a golden directory.
    pub const FILE: &'static str = "manifest.json";

    /// The manifest describing `tables` under `meta`. The commit field
    /// starts empty — only the bless path, which actually writes a
    /// manifest, pays for the `git rev-parse` ([`GoldenManifest::
    /// stamped`]); comparisons never look at it.
    pub fn new(meta: &RunMeta, tables: &[Table]) -> Self {
        let mut names: Vec<String> = tables.iter().map(|t| t.name.clone()).collect();
        names.sort_unstable();
        GoldenManifest {
            commit: String::new(),
            flags: meta.flags,
            tables: names,
        }
    }

    /// This manifest with the working tree's commit filled in (what a
    /// bless writes).
    pub fn stamped(mut self) -> Self {
        self.commit = current_commit();
        self
    }

    /// Render as JSON.
    pub fn render(&self) -> String {
        let RunFlags {
            scale,
            seed,
            replicates,
            k,
        } = self.flags;
        let k = k.map_or(String::new(), |k| format!(",\n  \"k\": {k}"));
        format!(
            "{{\n  \"commit\": {},\n  \"scale\": {},\n  \"seed\": {seed},\n  \
             \"replicates\": {replicates}{k},\n  \"tables\": [{}]\n}}\n",
            quoted(&self.commit),
            quoted(&scale.to_string()),
            list(&self.tables, |t| quoted(t)),
        )
    }

    /// Parse from JSON text.
    pub fn parse(text: &str) -> Result<GoldenManifest, String> {
        json::decode("golden manifest", text, |f| {
            Ok(GoldenManifest {
                commit: f.req("commit")?,
                flags: RunFlags::read(f)?,
                tables: f.req("tables")?,
            })
        })
    }
}

/// Short commit hash of the working tree, for bless provenance: `git
/// rev-parse`, else `"unknown"`.
fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The argument [`compare_driver`] still takes, with nothing in it: a
/// golden is compared byte for byte, so there is nothing to specify. It
/// stays because the benchmark passes `bench::figures::golden_spec`'s
/// value to [`compare_driver`], whose signature its import seam pins;
/// ROADMAP 8b deletes both.
#[derive(Debug, Clone, Copy)]
pub struct GoldenSpec;

/// One observed divergence from a golden.
#[derive(Debug, Clone)]
pub struct Drift {
    /// Driver (experiment) name.
    pub driver: String,
    /// Table name within the driver.
    pub table: String,
    /// 1-based data-row number, when the drift is cell-level.
    pub row: Option<usize>,
    /// Column name, when the drift is cell-level.
    pub column: Option<String>,
    /// What the fresh run produced.
    pub got: String,
    /// What the committed golden says.
    pub want: String,
    /// Human context (missing file, row-count mismatch, ...).
    pub note: String,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.driver, self.table)?;
        if let Some(r) = self.row {
            write!(f, " row {r}")?;
        }
        if let Some(c) = &self.column {
            write!(f, " col {c}")?;
        }
        write!(f, ": got `{}` want `{}`", self.got, self.want)?;
        if !self.note.is_empty() {
            write!(f, " ({})", self.note)?;
        }
        Ok(())
    }
}

/// Parse CSV text into records (header included), honoring quoted
/// fields with embedded separators, doubled quotes, and newlines.
pub fn parse_csv(text: &str) -> Result<Vec<Vec<String>>, String> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = text.chars().peekable();
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if quoted {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = false,
                c => field.push(c),
            }
        } else {
            match c {
                '"' if field.is_empty() => quoted = true,
                '"' => return Err("unexpected quote mid-field".into()),
                ',' => row.push(std::mem::take(&mut field)),
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                '\r' => {} // tolerate CRLF goldens from checkout mangling
                c => field.push(c),
            }
        }
    }
    if quoted {
        return Err("unterminated quoted field".into());
    }
    if any && (!field.is_empty() || !row.is_empty()) {
        // Final record without a trailing newline.
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// Fill in `d`, the drift of a table whose CSV `got` differs from its
/// golden `want`, with where the two first part: the header if it
/// changed (an empty golden has none), else the first differing row with
/// its first differing column and both cells, else the row count. When
/// every cell agrees, only the bytes between them differ (line endings,
/// quoting), and `d` names the first differing line. An error is a golden
/// that does not parse.
fn first_difference(d: &mut Drift, got: &str, want: &str) -> Result<(), String> {
    let golden = parse_csv(want)?;
    let fresh = parse_csv(got).expect("a table's own CSV parses");
    let (head, rows) = fresh.split_first().expect("a table's CSV has a header");
    let no_header = Vec::new();
    let ghead = golden.first().unwrap_or(&no_header);
    let grows = golden.get(1..).unwrap_or_default();
    if head != ghead {
        d.note = "column set changed".into();
        (d.got, d.want) = (head.join(","), ghead.join(","));
    } else if let Some(r) = rows.iter().zip(grows).position(|(a, b)| a != b) {
        let (a, b) = (&rows[r], &grows[r]);
        let c = first_index(a, b);
        d.row = Some(r + 1);
        d.column = Some(head.get(c).map_or(format!("#{}", c + 1), Clone::clone));
        d.got = a.get(c).cloned().unwrap_or_default();
        d.want = b.get(c).cloned().unwrap_or_default();
        if a.len() != b.len() {
            d.note = format!("{} cells, golden {}", a.len(), b.len());
        }
    } else if rows.len() != grows.len() {
        d.note = "row count changed".into();
        d.got = format!("{} rows", rows.len());
        d.want = format!("{} rows", grows.len());
    } else {
        let (g, w): (Vec<_>, Vec<_>) = (got.split('\n').collect(), want.split('\n').collect());
        let l = first_index(&g, &w);
        d.note = format!("line {}: every cell agrees, the bytes do not", l + 1);
        d.got = format!("{:?}", g.get(l).copied().unwrap_or_default());
        d.want = format!("{:?}", w.get(l).copied().unwrap_or_default());
    }
    Ok(())
}

/// The first index at which `a` and `b` differ; they must differ.
fn first_index<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    (0..)
        .find(|&i| a.get(i) != b.get(i))
        .expect("the two differ")
}

/// Compare a driver's freshly built tables against its committed
/// goldens, byte for byte. Returns every drift found (empty = clean):
/// one per table that differs, naming where it first parts, and one
/// per missing or stale golden file and stale manifest field. IO errors
/// other than "golden missing" (which is reported as a drift) are
/// returned as errors.
pub fn compare_driver(
    driver: &str,
    tables: &[Table],
    golden_root: &Path,
    _spec: &GoldenSpec,
    meta: &RunMeta,
) -> io::Result<Vec<Drift>> {
    let dir = golden_root.join(driver);
    let drift = |table: &str, note: &str, got: String, want: String| Drift {
        driver: driver.to_string(),
        table: table.to_string(),
        row: None,
        column: None,
        got,
        want,
        note: note.to_string(),
    };
    if !dir.is_dir() {
        return Ok(vec![drift(
            "*",
            "no golden directory; bless with OPERA_BLESS=1",
            format!("{} table(s)", tables.len()),
            dir.display().to_string(),
        )]);
    }

    let mut drifts = Vec::new();
    for t in tables {
        let path = dir.join(format!("{}.csv", t.name));
        let want = match fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                drifts.push(drift(
                    &t.name,
                    "golden file missing; bless with OPERA_BLESS=1",
                    format!("{} row(s)", t.len()),
                    path.display().to_string(),
                ));
                continue;
            }
            Err(e) => return Err(e),
        };
        let got = t.to_csv();
        if got != want {
            let mut d = drift(&t.name, "", String::new(), String::new());
            first_difference(&mut d, &got, &want).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: malformed golden CSV: {e}", path.display()),
                )
            })?;
            drifts.push(d);
        }
    }

    // Goldens for tables the driver no longer produces are drift too:
    // they would silently rot.
    let produced: Vec<String> = tables.iter().map(|t| format!("{}.csv", t.name)).collect();
    let mut stale: Vec<String> = Vec::new();
    for entry in fs::read_dir(&dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") && !produced.contains(&name) {
            stale.push(name);
        }
    }
    stale.sort_unstable();
    for name in stale {
        drifts.push(drift(
            name.trim_end_matches(".csv"),
            "stale golden: driver no longer produces this table",
            String::new(),
            name.clone(),
        ));
    }

    // Provenance: the manifest must exist and record the flags and
    // table set this comparison is running under, or the bless is
    // stale.
    let want = GoldenManifest::new(meta, tables);
    let mpath = dir.join(GoldenManifest::FILE);
    match fs::read_to_string(&mpath) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            drifts.push(drift(
                GoldenManifest::FILE,
                "manifest missing; bless with OPERA_BLESS=1 to stamp provenance",
                String::new(),
                mpath.display().to_string(),
            ));
        }
        Err(e) => return Err(e),
        Ok(text) => {
            // `want` is what this run would stamp (the fresh side of
            // the drift), `committed` what the bless recorded.
            let committed = GoldenManifest::parse(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", mpath.display()),
                )
            })?;
            let mut stale = |field: &str, run_v: String, manifest_v: String| {
                drifts.push(drift(
                    GoldenManifest::FILE,
                    &format!("stale bless: manifest {field} disagrees with this run"),
                    run_v,
                    manifest_v,
                ));
            };
            if let Some(d) = want.flags.first_difference(&committed.flags) {
                stale(d.flag, d.got, d.want);
            }
            if want.tables != committed.tables {
                stale("tables", want.tables.join(","), committed.tables.join(","));
            }
        }
    }
    Ok(drifts)
}

/// Write (bless) a driver's tables as its new goldens, stamping the
/// provenance manifest and deleting stale table files. Returns the
/// written CSV paths, in table order.
pub fn bless_driver(
    driver: &str,
    tables: &[Table],
    golden_root: &Path,
    meta: &RunMeta,
) -> io::Result<Vec<PathBuf>> {
    let dir = golden_root.join(driver);
    fs::create_dir_all(&dir)?;
    let mut written = Vec::with_capacity(tables.len());
    for t in tables {
        let path = dir.join(format!("{}.csv", t.name));
        fs::write(&path, t.to_csv())?;
        written.push(path);
    }
    fs::write(
        dir.join(GoldenManifest::FILE),
        GoldenManifest::new(meta, tables).stamped().render(),
    )?;
    let keep: Vec<String> = tables.iter().map(|t| format!("{}.csv", t.name)).collect();
    for entry in fs::read_dir(&dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") && !keep.contains(&name) {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;

    use crate::testutil::{tmp_dir as tmp_root, QUICK};

    fn meta() -> RunMeta {
        crate::testutil::meta("drv", None)
    }

    fn demo_table() -> Table {
        let mut t = Table::new("series", &["label", "x", "y"]);
        t.push(vec![
            Cell::from("a,b"),
            Cell::from(1u64),
            Cell::from("0.5000"),
        ]);
        t.push(vec![
            Cell::from("plain"),
            Cell::from(2u64),
            Cell::from("NaN"),
        ]);
        t
    }

    #[test]
    fn csv_round_trip_with_quoting() {
        let t = demo_table();
        let parsed = parse_csv(&t.to_csv()).unwrap();
        assert_eq!(parsed[0], ["label", "x", "y"]);
        assert_eq!(parsed[1], ["a,b", "1", "0.5000"]);
        assert_eq!(parsed.len(), 3);
        // Embedded quotes and newlines survive.
        let tricky = "h\n\"a\"\"b\",\"c\nd\"\n";
        let p = parse_csv(tricky).unwrap();
        assert_eq!(p[1], ["a\"b", "c\nd"]);
        assert!(parse_csv("a\"b,c\n").is_err());
        assert!(parse_csv("\"open\n").is_err());
    }

    #[test]
    fn clean_compare_and_bless_idempotence() {
        let root = tmp_root("clean");
        let t = vec![demo_table()];
        let first = bless_driver("drv", &t, &root, &meta()).unwrap();
        assert_eq!(first.len(), 1);
        let before = fs::read_to_string(&first[0]).unwrap();
        assert!(compare_driver("drv", &t, &root, &GoldenSpec, &meta())
            .unwrap()
            .is_empty());
        // Re-bless on an unmodified table is byte-idempotent.
        bless_driver("drv", &t, &root, &meta()).unwrap();
        assert_eq!(fs::read_to_string(&first[0]).unwrap(), before);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn drift_names_row_and_column() {
        let root = tmp_root("drift");
        bless_driver("drv", &[demo_table()], &root, &meta()).unwrap();
        let mut changed = demo_table();
        changed.rows[0][2] = Cell::from("0.6000");
        let drifts = compare_driver("drv", &[changed], &root, &GoldenSpec, &meta()).unwrap();
        assert_eq!(drifts.len(), 1);
        let d = &drifts[0];
        assert_eq!((d.row, d.column.as_deref()), (Some(1), Some("y")));
        assert_eq!((d.got.as_str(), d.want.as_str()), ("0.6000", "0.5000"));
        assert!(d.to_string().contains("drv/series row 1 col y"));
        fs::remove_dir_all(&root).unwrap();
    }

    /// Two goldens a numeric comparison read as equal: a row with an
    /// extra trailing cell, and a cell spelled as an equal number. Each
    /// is one drift that names the row, the column and both cells. A
    /// golden whose cells all agree and whose bytes do not names a line.
    #[test]
    fn an_altered_golden_is_one_drift_at_its_first_difference() {
        let root = tmp_root("bytes");
        let path = bless_driver("drv", &[demo_table()], &root, &meta()).unwrap()[0].clone();
        let blessed = fs::read_to_string(&path).unwrap();
        let drift = |golden: String| {
            fs::write(&path, golden).unwrap();
            let drifts = compare_driver("drv", &[demo_table()], &root, &GoldenSpec, &meta());
            let mut drifts = drifts.unwrap();
            assert_eq!(drifts.len(), 1, "{drifts:?}");
            let d = drifts.remove(0);
            (d.row, d.column, d.got, d.want, d.note)
        };
        let col = |s: &str| Some(s.to_string());
        let (row, column, got, want, note) =
            drift(blessed.replacen("0.5000\n", "0.5000,EXTRA\n", 1));
        assert_eq!(
            (row, column, got, want),
            (Some(1), col("#4"), "".into(), "EXTRA".into())
        );
        assert_eq!(note, "3 cells, golden 4");
        let (row, column, got, want, _) = drift(blessed.replacen("0.5000\n", "0.5\n", 1));
        assert_eq!(
            (row, column, got, want),
            (Some(1), col("y"), "0.5000".into(), "0.5".into())
        );
        // Every cell agrees and the bytes do not: a CRLF line ending.
        let (row, _, _, _, note) = drift(blessed.replacen('\n', "\r\n", 1));
        assert_eq!(
            (row, note.as_str()),
            (None, "line 1: every cell agrees, the bytes do not")
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn nan_cells_match_and_structure_changes_are_drift() {
        let root = tmp_root("structure");
        bless_driver("drv", &[demo_table()], &root, &meta()).unwrap();
        // NaN golden vs NaN run: no drift (covered by clean compare).
        // Missing golden file (plus the manifest's table list no longer
        // matching the blessed set).
        let extra = Table::new("extra", &["a"]);
        let drifts =
            compare_driver("drv", &[demo_table(), extra], &root, &GoldenSpec, &meta()).unwrap();
        assert_eq!(drifts.len(), 2);
        assert!(drifts[0].note.contains("missing"));
        assert!(drifts[1].note.contains("manifest tables"));
        // Stale golden file.
        let drifts = compare_driver("drv", &[], &root, &GoldenSpec, &meta()).unwrap();
        assert!(drifts.iter().any(|d| d.note.contains("stale golden")));
        // Row-count change.
        let mut short = demo_table();
        short.rows.pop();
        let drifts = compare_driver("drv", &[short], &root, &GoldenSpec, &meta()).unwrap();
        assert!(drifts.iter().any(|d| d.note.contains("row count")));
        // Column rename.
        let mut renamed = demo_table();
        renamed.columns[2] = "z".into();
        let drifts = compare_driver("drv", &[renamed], &root, &GoldenSpec, &meta()).unwrap();
        assert!(drifts.iter().any(|d| d.note.contains("column set")));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_directory_is_reported() {
        let root = tmp_root("nodir");
        let drifts = compare_driver("ghost", &[demo_table()], &root, &GoldenSpec, &meta()).unwrap();
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].note.contains("no golden directory"));
    }

    #[test]
    fn manifest_round_trips_and_detects_stale_bless() {
        let root = tmp_root("manifest");
        bless_driver("drv", &[demo_table()], &root, &meta()).unwrap();
        let text = fs::read_to_string(root.join("drv").join(GoldenManifest::FILE)).unwrap();
        let m = GoldenManifest::parse(&text).unwrap();
        assert_eq!(m.flags, QUICK);
        assert_eq!(m.tables, ["series"]);
        assert!(!m.commit.is_empty());

        // Same tables compared under different flags: stale bless.
        let mut other = meta();
        other.flags.replicates = 5;
        let drifts = compare_driver("drv", &[demo_table()], &root, &GoldenSpec, &other).unwrap();
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].note.contains("manifest replicates"));
        assert_eq!(
            (drifts[0].got.as_str(), drifts[0].want.as_str()),
            ("5", "3")
        );

        // A manifest that does not decode is an error naming the file
        // and the field, not a pass and not a drift.
        let mpath = root.join("drv").join(GoldenManifest::FILE);
        fs::write(&mpath, text.replace("\"quick\"", "\"huge\"")).unwrap();
        let err = compare_driver("drv", &[demo_table()], &root, &GoldenSpec, &meta())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("manifest.json: golden manifest: scale: unknown scale \"huge\""),
            "{err}"
        );

        // Deleting the manifest is detectable drift, not a pass.
        fs::remove_file(root.join("drv").join(GoldenManifest::FILE)).unwrap();
        let drifts = compare_driver("drv", &[demo_table()], &root, &GoldenSpec, &meta()).unwrap();
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].note.contains("manifest missing"));
        fs::remove_dir_all(&root).unwrap();
    }
}
