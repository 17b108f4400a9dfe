//! The mutation census (ROADMAP 20): which tier-1 tests notice when a
//! mechanism of the model is switched off.
//!
//! `tests/mutants.txt` lists one-line mutants. [`every_needle_occurs_once`]
//! keeps that list applicable to the code as it is. The ignored
//! [`census`] copies the workspace to a temporary directory, builds it
//! with its own `CARGO_TARGET_DIR` (`target/mutants`), and for each mutant
//! applies the edit, runs `cargo test -q --no-fail-fast` (the root
//! package's tests, tier-1) and puts the edit back. It writes what killed
//! each mutant to `goldens/mutants.csv`, splitting the killers into
//! behavioural tests and pins (tests that compare against a committed
//! recording), and fails if a live mutant survives:
//!
//! ```sh
//! cargo test --test mutants -- --ignored    # ≈ 25 s per mutant on 2 cores
//! ```

use std::collections::BTreeSet;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Tests that compare a run against a committed recording: they kill a
/// mutant by noticing that something moved, not what.
const PINS: [&str; 4] = [
    "golden_figures::golden_figures",
    "golden_figures::dark_drop_runs_are_the_committed_list",
    "transports_pinned::three_transports_reproduce_the_parent_commit",
    "trace_scenarios::tiny_incast_trace_matches_golden",
];

/// One line of `tests/mutants.txt`; `file` is `None` for a mutant whose
/// code was deleted.
struct Mutant {
    name: String,
    file: Option<String>,
    needle: String,
    replacement: String,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn mutants() -> Vec<Mutant> {
    let list = fs::read_to_string(root().join("tests/mutants.txt")).expect("read mutants.txt");
    let unescape = |s: &str| s.replace("\\n", "\n");
    list.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split(" | ").map(str::trim).collect();
            assert_eq!(f.len(), 5, "five fields: {l}");
            assert!(!f[0].contains(','), "a mutant's name is a CSV cell: {l}");
            Mutant {
                name: f[0].to_string(),
                file: (f[1] != "-").then(|| f[1].to_string()),
                needle: unescape(f[2]),
                replacement: unescape(f[3]),
            }
        })
        .collect()
}

#[test]
fn every_needle_occurs_once() {
    let list = mutants();
    assert!(list.len() >= 17, "the census's 17 mutants at least");
    for m in list {
        let Some(file) = &m.file else { continue };
        let text = fs::read_to_string(root().join(file)).expect(file);
        let n = text.matches(&m.needle).count();
        assert_eq!(n, 1, "{}: its needle occurs {n} times in {file}", m.name);
    }
}

/// Copy the workspace's files (tracked, and untracked but not ignored) to
/// `to`.
fn copy_workspace(to: &Path) {
    let out = Command::new("git")
        .args(["ls-files", "-z", "-co", "--exclude-standard"])
        .current_dir(root())
        .output()
        .expect("run git ls-files");
    assert!(out.status.success(), "git ls-files failed");
    let _ = fs::remove_dir_all(to);
    for rel in out.stdout.split(|&b| b == 0).filter(|p| !p.is_empty()) {
        let rel = Path::new(std::str::from_utf8(rel).expect("utf-8 path"));
        let (from, dest) = (root().join(rel), to.join(rel));
        if from.is_file() {
            fs::create_dir_all(dest.parent().expect("a file has a parent")).expect("mkdir");
            fs::copy(&from, &dest).unwrap_or_else(|e| panic!("copy {}: {e}", rel.display()));
        }
    }
}

/// How a tier-1 run of the copy ended.
enum Outcome {
    /// The failed tests, as `binary::test`.
    Ran(BTreeSet<String>),
    /// The build failed, or the run passed `limit`.
    Broken(&'static str),
}

/// Run tier-1 in `dir`, stdout and stderr into one log.
fn tier1(dir: &Path, target: &Path, log: &Path, limit: Duration) -> Outcome {
    let file = File::create(log).expect("create log");
    let mut child = Command::new(env!("CARGO"))
        .args(["test", "-q", "--no-fail-fast", "--offline"])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::from(file.try_clone().expect("clone log")))
        .stderr(Stdio::from(file))
        .spawn()
        .expect("spawn cargo test");
    let start = Instant::now();
    while child.try_wait().expect("wait for cargo").is_none() {
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            return Outcome::Broken("timeout");
        }
        std::thread::sleep(Duration::from_millis(500));
    }
    let text = fs::read_to_string(log).expect("read log");
    if text.contains("error: could not compile") {
        return Outcome::Broken("build error");
    }
    Outcome::Ran(failed_tests(&text))
}

/// The failed tests of a `cargo test -q` log, as `binary::test`: a test
/// binary's failure list comes before cargo's "to rerun pass `--test
/// <binary>`" line. A binary that failed without naming a test (it
/// aborted) counts as `binary::*`.
fn failed_tests(log: &str) -> BTreeSet<String> {
    let (mut failed, mut pending) = (BTreeSet::new(), Vec::new());
    let mut listing = false;
    for line in log.lines() {
        if line == "failures:" {
            listing = true;
        } else if listing && line.starts_with("    ") && !line.trim().contains(' ') {
            pending.push(line.trim().to_string());
        } else if let Some(rest) = line.split("to rerun pass `").nth(1) {
            let binary = rest.trim_end_matches('`').rsplit(' ').next().unwrap_or("?");
            let binary = binary.trim_start_matches("--");
            if pending.is_empty() {
                pending.push("*".into());
            }
            failed.extend(pending.drain(..).map(|t| format!("{binary}::{t}")));
        } else {
            listing = false;
        }
    }
    failed
}

#[test]
#[ignore = "builds and runs tier-1 once per mutant, ≈ 25 s each on 2 cores"]
fn census() {
    let copy = std::env::temp_dir().join("opera-mutants");
    let target: PathBuf = root().join("target/mutants");
    let log = std::env::temp_dir().join("opera-mutants.log");
    let limit = Duration::from_secs(30 * 60);
    copy_workspace(&copy);
    match tier1(&copy, &target, &log, limit) {
        Outcome::Ran(failed) if failed.is_empty() => {}
        Outcome::Ran(failed) => panic!("tier-1 fails unmutated: {failed:?}"),
        Outcome::Broken(why) => panic!("unmutated tier-1: {why}, see {}", log.display()),
    }
    let mut csv = String::from("mutant,status,behavioural_killers,pin_killers\n");
    let mut survivors = Vec::new();
    for m in mutants() {
        let Some(file) = &m.file else {
            csv += &format!("{},deleted,,\n", m.name);
            continue;
        };
        let path = copy.join(file);
        let text = fs::read_to_string(&path).expect(file);
        fs::write(&path, text.replacen(&m.needle, &m.replacement, 1)).expect(file);
        let outcome = tier1(&copy, &target, &log, limit);
        fs::write(&path, &text).expect(file);
        let row = match outcome {
            Outcome::Ran(failed) => {
                // This file's own needle check fails on every mutant.
                let failed = failed.into_iter().filter(|t| !t.starts_with("mutants::"));
                let (pins, behavioural): (Vec<_>, Vec<_>) =
                    failed.partition(|t| PINS.contains(&t.as_str()));
                let status = if pins.is_empty() && behavioural.is_empty() {
                    survivors.push(m.name.clone());
                    "survived"
                } else {
                    "killed"
                };
                format!("{status},{},{}", behavioural.join(";"), pins.join(";"))
            }
            Outcome::Broken(why) => format!("{why},,"),
        };
        eprintln!("{}: {row}", m.name);
        csv += &format!("{},{row}\n", m.name);
    }
    fs::write(root().join("goldens/mutants.csv"), csv).expect("write goldens/mutants.csv");
    assert!(
        survivors.is_empty(),
        "mutants no tier-1 test kills: {survivors:?}"
    );
}

#[test]
fn failed_tests_are_named_by_binary() {
    let log = "running 2 tests\n.F\nfailures:\n\n---- a stdout ----\npanicked\n\n\
               failures:\n    a\n\ntest result: FAILED. 1 passed; 1 failed\n\n\
               error: test failed, to rerun pass `--test link_failure`\n\
               error: test failed, to rerun pass `--lib`\n\
               error: 2 targets failed:\n    `--test link_failure`\n    `--lib`\n";
    let failed: Vec<String> = failed_tests(log).into_iter().collect();
    assert_eq!(failed, ["lib::*", "link_failure::a"]);
}
