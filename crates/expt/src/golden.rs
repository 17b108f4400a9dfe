//! Golden-baseline store and tolerance-aware diff engine.
//!
//! A *golden* is a committed quick-mode CSV under
//! `goldens/<driver>/<table>.csv`: the blessed output of one figure
//! table. Because the harness is deterministic (fixed quick grids, fixed
//! base seed, thread-invariant collection), any drift between a fresh
//! run and its golden is a behavioral change in some simulation layer —
//! and the [`Drift`] report names the driver, table, row, and column
//! that moved, which is a far better regression signal than a distant
//! unit-test failure.
//!
//! Comparison is tolerance-aware per cell: cells that parse as
//! numbers on both sides are compared with a [`Tolerance`]
//! (absolute-or-relative, `NaN == NaN`), everything else must match
//! byte-for-byte. The default [`GoldenSpec::strict`] tolerance (1e-9
//! abs/rel) is effectively exact for the formatted decimals the figure
//! tables emit while still absorbing cross-platform `libm` jitter in
//! shortest-round-trip floats.
//!
//! Regenerate goldens by running the comparison path with blessing
//! enabled (`OPERA_BLESS=1` for the tier-1 test, `--bless` for
//! `opera golden`); on an unmodified tree a bless is byte-idempotent.

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

/// Absolute/relative tolerance for one numeric comparison. Two values
/// are close when `|a - b| <= abs` **or** `|a - b| <= rel * max(|a|,
/// |b|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute slack.
    pub abs: f64,
    /// Relative slack (fraction of the larger magnitude).
    pub rel: f64,
}

impl Tolerance {
    /// Byte-exact numeric comparison (still `NaN == NaN`).
    pub const EXACT: Tolerance = Tolerance { abs: 0.0, rel: 0.0 };

    /// A tolerance with the given absolute and relative slack.
    pub fn new(abs: f64, rel: f64) -> Self {
        Tolerance { abs, rel }
    }

    /// True when `got` and `want` agree within this tolerance.
    pub fn close(&self, got: f64, want: f64) -> bool {
        if got.is_nan() && want.is_nan() {
            return true;
        }
        if got == want {
            return true; // covers equal infinities and exact matches
        }
        let d = (got - want).abs();
        d <= self.abs || d <= self.rel * got.abs().max(want.abs())
    }
}

/// Per-driver comparison spec: one tolerance for every column.
#[derive(Debug, Clone)]
pub struct GoldenSpec {
    /// Tolerance on every column.
    pub default_tol: Tolerance,
}

impl GoldenSpec {
    /// Near-exact comparison: 1e-9 absolute/relative on every column.
    pub fn strict() -> Self {
        GoldenSpec {
            default_tol: Tolerance::new(1e-9, 1e-9),
        }
    }
}

impl Default for GoldenSpec {
    fn default() -> Self {
        GoldenSpec::strict()
    }
}

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

/// True when two rendered cells agree: numerically within `tol` when
/// both parse as floats, byte-equal otherwise.
fn cells_close(got: &str, want: &str, tol: Tolerance) -> bool {
    match (got.parse::<f64>(), want.parse::<f64>()) {
        (Ok(g), Ok(w)) => tol.close(g, w),
        _ => got == want,
    }
}

/// Compare a driver's freshly built tables against its committed
/// goldens. Returns every drift found (empty = clean). IO errors other
/// than "golden missing" (which is reported as a drift) are returned as
/// errors.
pub fn compare_driver(
    driver: &str,
    tables: &[Table],
    golden_root: &Path,
    spec: &GoldenSpec,
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
        let text = match fs::read_to_string(&path) {
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
        let golden = parse_csv(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: malformed golden CSV: {e}", path.display()),
            )
        })?;
        let (ghead, grows) = match golden.split_first() {
            Some((h, r)) => (h.clone(), r),
            None => {
                drifts.push(drift(
                    &t.name,
                    "golden file is empty",
                    t.to_csv(),
                    String::new(),
                ));
                continue;
            }
        };
        if ghead != t.columns {
            drifts.push(drift(
                &t.name,
                "column set changed",
                t.columns.join(","),
                ghead.join(","),
            ));
            continue;
        }
        if grows.len() != t.rows.len() {
            drifts.push(drift(
                &t.name,
                "row count changed",
                format!("{} rows", t.rows.len()),
                format!("{} rows", grows.len()),
            ));
        }
        for (ri, (got_row, want_row)) in t.rows.iter().zip(grows).enumerate() {
            for (ci, column) in t.columns.iter().enumerate() {
                let got = got_row[ci].to_string();
                let want = want_row.get(ci).cloned().unwrap_or_default();
                if !cells_close(&got, &want, spec.default_tol) {
                    drifts.push(Drift {
                        driver: driver.to_string(),
                        table: t.name.clone(),
                        row: Some(ri + 1),
                        column: Some(column.clone()),
                        got,
                        want,
                        note: String::new(),
                    });
                }
            }
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
    fn tolerance_semantics() {
        let t = Tolerance::new(0.01, 0.0);
        assert!(t.close(1.0, 1.005));
        assert!(!t.close(1.0, 1.05));
        let r = Tolerance::new(0.0, 0.01);
        assert!(r.close(100.0, 100.5));
        assert!(!r.close(100.0, 102.0));
        assert!(Tolerance::EXACT.close(f64::NAN, f64::NAN));
        assert!(Tolerance::EXACT.close(2.5, 2.5));
        assert!(!Tolerance::EXACT.close(2.5, 2.5000001));
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
        assert!(
            compare_driver("drv", &t, &root, &GoldenSpec::strict(), &meta())
                .unwrap()
                .is_empty()
        );
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
        let drifts =
            compare_driver("drv", &[changed], &root, &GoldenSpec::strict(), &meta()).unwrap();
        assert_eq!(drifts.len(), 1);
        let d = &drifts[0];
        assert_eq!((d.row, d.column.as_deref()), (Some(1), Some("y")));
        assert_eq!((d.got.as_str(), d.want.as_str()), ("0.6000", "0.5000"));
        assert!(d.to_string().contains("drv/series row 1 col y"));
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
        let drifts = compare_driver(
            "drv",
            &[demo_table(), extra],
            &root,
            &GoldenSpec::strict(),
            &meta(),
        )
        .unwrap();
        assert_eq!(drifts.len(), 2);
        assert!(drifts[0].note.contains("missing"));
        assert!(drifts[1].note.contains("manifest tables"));
        // Stale golden file.
        let drifts = compare_driver("drv", &[], &root, &GoldenSpec::strict(), &meta()).unwrap();
        assert!(drifts.iter().any(|d| d.note.contains("stale golden")));
        // Row-count change.
        let mut short = demo_table();
        short.rows.pop();
        let drifts =
            compare_driver("drv", &[short], &root, &GoldenSpec::strict(), &meta()).unwrap();
        assert!(drifts.iter().any(|d| d.note.contains("row count")));
        // Column rename.
        let mut renamed = demo_table();
        renamed.columns[2] = "z".into();
        let drifts =
            compare_driver("drv", &[renamed], &root, &GoldenSpec::strict(), &meta()).unwrap();
        assert!(drifts.iter().any(|d| d.note.contains("column set")));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_directory_is_reported() {
        let root = tmp_root("nodir");
        let drifts = compare_driver(
            "ghost",
            &[demo_table()],
            &root,
            &GoldenSpec::strict(),
            &meta(),
        )
        .unwrap();
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
        let drifts =
            compare_driver("drv", &[demo_table()], &root, &GoldenSpec::strict(), &other).unwrap();
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
        let err = compare_driver(
            "drv",
            &[demo_table()],
            &root,
            &GoldenSpec::strict(),
            &meta(),
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("manifest.json: golden manifest: scale: unknown scale \"huge\""),
            "{err}"
        );

        // Deleting the manifest is detectable drift, not a pass.
        fs::remove_file(root.join("drv").join(GoldenManifest::FILE)).unwrap();
        let drifts = compare_driver(
            "drv",
            &[demo_table()],
            &root,
            &GoldenSpec::strict(),
            &meta(),
        )
        .unwrap();
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].note.contains("manifest missing"));
        fs::remove_dir_all(&root).unwrap();
    }
}
