//! Command-line arguments shared by every figure driver, and the
//! argument cursor ([`Args`]) every `opera` subcommand reads its flags
//! through.
//!
//! `opera run <driver>` accepts the same flags for all 20 drivers so CI
//! and laptops exercise the same code paths:
//!
//! * `--quick` — tiny grids + fixed seed (CI smoke mode),
//! * `--full` — paper-scale configurations,
//! * `--threads N` — worker threads (`0` = all cores, the default),
//! * `--seed S` — base seed for per-point seed derivation,
//! * `--replicates R` — replicate seeds per sweep point (default 3);
//!   figure tables report mean and 95% CI over the replicates,
//! * `--shard I/N` — run only sweep points with `index % N == I`, for
//!   fanning a sweep out across machines; sharded runs write JSON table
//!   documents under `results/<driver>/shards/`, merged back (with
//!   point-index validation) by [`crate::output::merge_shard_docs`] or
//!   `opera orchestrate`,
//! * `--out DIR` — results root (default `results/`),
//! * `--no-write` — print CSV to stdout only.

use crate::json::{Bad, FromJson, Json};
use crate::RunFlags;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// Cursor over the arguments left on a command line: iterate for the
/// next flag, then pull that flag's value with a uniform error.
#[derive(Debug)]
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// Cursor over `args` (the program name already skipped).
    pub fn new<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Args(
            args.into_iter()
                .map(Into::into)
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    /// The value that must follow `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value that must follow `flag`, parsed.
    pub fn parsed<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|e| format!("{flag}: invalid value {v:?}: {e}"))
    }

    /// The count that must follow `flag` (`--replicates`, `--shards`):
    /// at least 1. Zero replicates would run no seed and write
    /// header-only tables; zero shards would run no job.
    pub fn at_least_one(&mut self, flag: &str) -> Result<usize, String> {
        match self.parsed(flag)? {
            0 => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }
}

impl Iterator for Args {
    type Item = String;
    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny grid, fixed seed: the CI smoke configuration.
    Quick,
    /// Laptop-friendly mini networks (the default).
    Default,
    /// The paper's configurations (slow).
    Full,
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        })
    }
}

impl Scale {
    /// Parse the name [`Scale`] renders to (`quick` / `default` /
    /// `full`) — the form table documents and run manifests store.
    pub fn from_name(name: &str) -> Result<Scale, String> {
        match name {
            "quick" => Ok(Scale::Quick),
            "default" => Ok(Scale::Default),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale {other:?} (want quick/default/full)")),
        }
    }
}

impl FromJson for Scale {
    fn from_json(j: &Json) -> Result<Self, Bad> {
        Scale::from_name(&String::from_json(j)?).map_err(Bad::new)
    }
}

/// Parsed arguments for one driver invocation: the run's identity and
/// how this invocation runs and writes it.
#[derive(Debug, Clone)]
pub struct ExptArgs {
    /// The run's identity: scale, base seed and replicates.
    pub flags: RunFlags,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Optional `(i, n)` shard: run only points with `index % n == i`.
    pub shard: Option<(usize, usize)>,
    /// Results root directory.
    pub out: PathBuf,
    /// Skip writing result files.
    pub no_write: bool,
}

impl Default for ExptArgs {
    fn default() -> Self {
        ExptArgs {
            flags: RunFlags::default(),
            threads: 0,
            shard: None,
            out: PathBuf::from("results"),
            no_write: false,
        }
    }
}

impl ExptArgs {
    /// Parse the flags shared by every driver. `--help` is not handled
    /// here: the `opera` front-end answers it before any subcommand
    /// parses.
    pub fn parse_from<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ExptArgs::default();
        let mut it = Args::new(args);
        while let Some(a) = it.next() {
            if out.flags.take_arg(&a, &mut it)? {
                continue;
            }
            match a.as_str() {
                "--threads" => out.threads = it.parsed(&a)?,
                "--shard" => out.shard = Some(parse_shard(&it.value(&a)?)?),
                "--out" => out.out = PathBuf::from(it.value(&a)?),
                "--no-write" => out.no_write = true,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(out)
    }
}

/// Parse a `--shard` value of the form `I/N` with `I < N`.
fn parse_shard(s: &str) -> Result<(usize, usize), String> {
    let bad = || format!("--shard: expected I/N with I < N, got {s:?}");
    let (i, n) = s.split_once('/').ok_or_else(bad)?;
    let i: usize = i.trim().parse().map_err(|_| bad())?;
    let n: usize = n.trim().parse().map_err(|_| bad())?;
    if n == 0 || i >= n {
        return Err(bad());
    }
    Ok((i, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = ExptArgs::parse_from(Vec::<String>::new()).unwrap();
        assert_eq!(
            a.flags,
            RunFlags {
                scale: Scale::Default,
                seed: 0,
                replicates: 3,
            }
        );
        assert_eq!(a.threads, 0);
        assert_eq!(a.shard, None);
        assert_eq!(a.out, PathBuf::from("results"));
        assert!(!a.no_write);
    }

    #[test]
    fn all_flags() {
        let a = ExptArgs::parse_from([
            "--quick",
            "--threads",
            "8",
            "--seed",
            "42",
            "--replicates",
            "5",
            "--shard",
            "1/4",
            "--out",
            "tmp/r",
            "--no-write",
        ])
        .unwrap();
        assert_eq!(
            a.flags,
            RunFlags {
                scale: Scale::Quick,
                seed: 42,
                replicates: 5,
            }
        );
        assert_eq!(a.threads, 8);
        assert_eq!(a.shard, Some((1, 4)));
        assert_eq!(a.out, PathBuf::from("tmp/r"));
        assert!(a.no_write);
    }

    #[test]
    fn quick_beats_full() {
        for order in [["--quick", "--full"], ["--full", "--quick"]] {
            let a = ExptArgs::parse_from(order).unwrap();
            assert_eq!(a.flags.scale, Scale::Quick);
        }
        let a = ExptArgs::parse_from(["--full"]).unwrap();
        assert_eq!(a.flags.scale, Scale::Full);
    }

    #[test]
    fn errors() {
        assert!(ExptArgs::parse_from(["--threads"]).is_err());
        assert!(ExptArgs::parse_from(["--threads", "x"]).is_err());
        assert!(ExptArgs::parse_from(["--bogus"]).is_err());
        assert_eq!(
            ExptArgs::parse_from(["--replicates", "0"]).unwrap_err(),
            "--replicates must be at least 1"
        );
    }

    #[test]
    fn shard_parsing() {
        assert_eq!(parse_shard("0/2"), Ok((0, 2)));
        assert_eq!(parse_shard("3/8"), Ok((3, 8)));
        assert!(parse_shard("2/2").is_err()); // i must be < n
        assert!(parse_shard("0/0").is_err());
        assert!(parse_shard("1").is_err());
        assert!(parse_shard("a/b").is_err());
    }
}
