//! Declarative scenario files: experiments as data, not code.
//!
//! A scenario file describes one simulation setup — topology, workload,
//! switch policy, transport, run length, and trace options — in TOML or
//! JSON. Both forms become one [`Json`] tree ([`parse_toml`] is the
//! format adapter) and are decoded by the crate's one strict reader,
//! [`crate::json::Fields`]: unknown tables or keys are named errors, so
//! a typo'd `policiy` cannot silently select a default. The axis fields
//! (`switch.policy`, `transport.kind`, `workload.senders`) accept a
//! scalar *or* an array; arrays become sweep axes and
//! [`Scenario::points`] expands their cartesian product into an ordered
//! list of [`ScenarioPoint`]s, exactly like the hand-written figure
//! drivers.
//!
//! This module is deliberately *name-generic*: it validates structure
//! and types but treats topology/policy/transport names as opaque
//! strings, because the `expt` harness does not depend on the simulator
//! crates. Mapping names to concrete `netsim`/`transport` types (and
//! rejecting unknown names with the list of known ones) happens in
//! `bench::scenario`, where the registry lives.
//!
//! ```toml
//! name = "incast_smoke"
//!
//! [topology]
//! kind = "opera"        # opera | opera_paper | expander | expander_paper | clos
//! racks = 8             # optional; opera / opera_paper only (runner-checked)
//!
//! [workload]
//! kind = "incast"       # incast | victim
//! senders = 8           # scalar or array (sweep axis)
//! flow_kb = 15
//!
//! [switch]
//! policy = "ndp_trim"   # scalar or array (sweep axis)
//!
//! [transport]
//! kind = "ndp"          # scalar or array (sweep axis)
//!
//! [run]
//! duration_ms = 40
//! seed = 1
//!
//! [trace]               # optional; requires a single-point scenario
//! jsonl = "trace.jsonl"
//! pcapng = "trace.pcapng"
//! ```

use crate::json::{Fields, Json, OneOrMany};
use simkit::{SimTime, NS_PER_MS};
use std::collections::BTreeMap;
use std::path::Path;

/// Most concurrent senders a `workload.senders` value may ask for: about
/// twenty flows per host of the paper's largest network (5 184 hosts),
/// and a flow list of a few megabytes. Every sender is one flow allocated
/// before the run starts, so the count must be bounded where it is read.
pub const MAX_SENDERS: usize = 100_000;

/// Largest `topology.racks` a scenario may ask for: the paper's largest
/// network (k = 24: 432 racks, 5 184 hosts). A rotor network's per-slice
/// routing tables grow with racks³ (about 160 MB there), so this count too
/// is bounded where it is read, before anything is allocated for it. At
/// the bound, a 1 ms `opera run-scenario` on the `opera` topology takes
/// ≈ 0.44 s on a 2-core Xeon host, nearly all of it building those tables
/// from distance rows (≈ 0.68 s with a bit-parallel frontier sweep, ≈ 3.4 s
/// with one breadth-first search per slice and destination).
pub const MAX_RACKS: usize = 432;

/// Largest per-flow payload a scenario may ask for, in bytes
/// (`workload.flow_bytes`; `workload.flow_kb` is bounded at a thousandth of
/// it): ten times the largest flow of the paper's workloads (Figure 1's
/// 1 GB). A low-latency flow keeps two segment bitmaps, the sender's and
/// the receiver's, each `segments / 8` bytes and allocated when it starts
/// (870 kB at the bound, in 1 436-byte segments), and its segment count is
/// a `u32`: a flow of 6.2 TB would wrap it and run short without a word.
/// So the size is bounded where it is read.
pub const MAX_FLOW_BYTES: u64 = 10_000_000_000;

/// Trace output options of a scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSpec {
    /// JSON-lines event trace file, relative to the run's output dir.
    pub jsonl: Option<String>,
    /// pcapng capture file, relative to the run's output dir.
    pub pcapng: Option<String>,
}

impl TraceSpec {
    /// True when any trace output is requested.
    pub fn enabled(&self) -> bool {
        self.jsonl.is_some() || self.pcapng.is_some()
    }
}

/// A parsed scenario file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name (defaults to the file stem).
    pub name: String,
    /// Topology kind (opaque here; resolved by the runner).
    pub topology: String,
    /// Rack-count override (optional), at most [`MAX_RACKS`]. Otherwise
    /// opaque here; the runner accepts it only on the Opera topologies, as
    /// a positive multiple of their uplink count, and rejects it on any
    /// other.
    pub racks: Option<usize>,
    /// Workload kind (`incast` / `victim`; opaque here).
    pub workload: String,
    /// Sender counts — axis (singleton for a scalar field).
    pub senders: Vec<usize>,
    /// Per-flow payload bytes, at most [`MAX_FLOW_BYTES`].
    pub flow_bytes: u64,
    /// Switch policy names — axis.
    pub policies: Vec<String>,
    /// Transport names — axis.
    pub transports: Vec<String>,
    /// Simulated run length: `run.duration_ms`, checked to fit the
    /// nanosecond clock.
    pub duration: SimTime,
    /// Base RNG seed.
    pub seed: u64,
    /// Trace outputs.
    pub trace: TraceSpec,
}

/// The document kind every scenario error starts with.
const DOC: &str = "scenario";

/// One point of a scenario's sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioPoint {
    /// Switch policy name.
    pub policy: String,
    /// Transport name.
    pub transport: String,
    /// Concurrent senders.
    pub senders: usize,
}

impl Scenario {
    /// Load a scenario from `path`, dispatching on the `.toml` / `.json`
    /// extension.
    pub fn load(path: &Path) -> Result<Scenario, String> {
        let named = |e: String| format!("{}: {e}", path.display());
        let text = std::fs::read_to_string(path).map_err(|e| named(e.to_string()))?;
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "scenario".into());
        let doc = match path.extension().and_then(|e| e.to_str()) {
            Some("toml") => parse_toml(&text),
            Some("json") => Json::parse(&text),
            other => Err(format!(
                "unsupported extension {other:?} (want .toml or .json)"
            )),
        }
        .map_err(|e| named(format!("{DOC}: {e}")))?;
        Scenario::from_doc(&doc, &stem).map_err(named)
    }

    /// Build a scenario from a parsed document tree (the common TOML/JSON
    /// path). `default_name` is used when the file has no `name` key.
    pub fn from_doc(doc: &Json, default_name: &str) -> Result<Scenario, String> {
        let mut top = Fields::new(DOC, doc)?;
        let mut topo = top.req_obj("topology")?;
        let mut wl = top.req_obj("workload")?;
        let mut sw = top.req_obj("switch")?;
        let mut tr = top.req_obj("transport")?;
        let mut run = top.req_obj("run")?;
        let mut trace = top.opt_obj("trace")?;
        let flow_bytes = match (wl.opt::<u64>("flow_kb")?, wl.opt::<u64>("flow_bytes")?) {
            (Some(_), Some(_)) => {
                return Err(wl.bad("flow_kb", "give `flow_kb` or `flow_bytes`, not both"))
            }
            (Some(kb), None) if kb > MAX_FLOW_BYTES / 1000 => {
                return Err(wl.bad("flow_kb", format!("{kb} is over {}", MAX_FLOW_BYTES / 1000)))
            }
            (Some(kb), None) => kb * 1000,
            (None, Some(b)) if b > MAX_FLOW_BYTES => {
                return Err(wl.bad("flow_bytes", format!("{b} is over {MAX_FLOW_BYTES}")))
            }
            (None, Some(b)) => b,
            (None, None) => return Err(wl.bad("flow_kb", "missing (or give `flow_bytes`)")),
        };
        let racks = topo.opt::<usize>("racks")?;
        if let Some(n) = racks.filter(|&n| n > MAX_RACKS) {
            return Err(topo.bad("racks", format!("{n} is over {MAX_RACKS}")));
        }
        let senders = wl.req::<OneOrMany<usize>>("senders")?.0;
        if let Some(n) = senders.iter().find(|&&n| n > MAX_SENDERS) {
            return Err(wl.bad("senders", format!("{n} is over {MAX_SENDERS}")));
        }
        let duration = (run.req::<u64>("duration_ms")?)
            .checked_mul(NS_PER_MS)
            .map(SimTime::from_ns)
            .ok_or_else(|| run.bad("duration_ms", "too large"))?;
        let sc = Scenario {
            name: top.opt("name")?.unwrap_or_else(|| default_name.to_string()),
            topology: topo.req("kind")?,
            racks,
            workload: wl.req("kind")?,
            senders,
            flow_bytes,
            policies: sw.req::<OneOrMany<String>>("policy")?.0,
            transports: tr.req::<OneOrMany<String>>("kind")?.0,
            duration,
            seed: run.opt("seed")?.unwrap_or(0),
            trace: match &mut trace {
                None => TraceSpec::default(),
                Some(t) => TraceSpec {
                    jsonl: t.opt("jsonl")?,
                    pcapng: t.opt("pcapng")?,
                },
            },
        };
        for table in [top, topo, wl, sw, tr, run].iter().chain(&trace) {
            table.finish()?;
        }
        if sc.trace.enabled() && sc.point_count() != 1 {
            return Err(format!(
                "{DOC}: trace: tracing requires a single-point scenario, but the axes expand \
                 to {} points (make `switch.policy`, `transport.kind`, and \
                 `workload.senders` scalars)",
                sc.point_count()
            ));
        }
        Ok(sc)
    }

    /// Number of points the axes expand to.
    pub fn point_count(&self) -> usize {
        self.policies.len() * self.transports.len() * self.senders.len()
    }

    /// Expand the axes into an ordered cartesian point list
    /// (policy-major, senders fastest — matching the figure drivers).
    pub fn points(&self) -> Vec<ScenarioPoint> {
        let mut pts = Vec::with_capacity(self.point_count());
        for p in &self.policies {
            for t in &self.transports {
                for &s in &self.senders {
                    pts.push(ScenarioPoint {
                        policy: p.clone(),
                        transport: t.clone(),
                        senders: s,
                    });
                }
            }
        }
        pts
    }
}

/// Parse the TOML subset scenario files use into a [`Json`] tree:
/// comments, one level of `[table]` headers, and `key = value` pairs
/// where a value is a string, integer, float, boolean, or a flat array
/// of those. Duplicate keys and tables are errors.
pub fn parse_toml(text: &str) -> Result<Json, String> {
    let mut top: BTreeMap<String, Json> = BTreeMap::new();
    let mut current: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let name = header
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated table header"))?
                .trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("line {lineno}: bad table name {name:?}"));
            }
            if top.contains_key(name) {
                return Err(format!("line {lineno}: duplicate table [{name}]"));
            }
            top.insert(name.to_string(), Json::Obj(BTreeMap::new()));
            current = Some(name.to_string());
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {lineno}: bad key {key:?}"));
        }
        let value = toml_value(value.trim(), lineno)?;
        let target = match &current {
            None => &mut top,
            Some(t) => match top.get_mut(t) {
                Some(Json::Obj(m)) => m,
                _ => unreachable!("tables are always objects"),
            },
        };
        if target.insert(key.to_string(), value).is_some() {
            return Err(format!("line {lineno}: duplicate key {key:?}"));
        }
    }
    Ok(Json::Obj(top))
}

/// Drop a `#`-comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn toml_value(s: &str, lineno: usize) -> Result<Json, String> {
    if s.is_empty() {
        return Err(format!("line {lineno}: missing value"));
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| format!("line {lineno}: unterminated array"))?
            .trim();
        if body.is_empty() {
            return Ok(Json::Arr(Vec::new()));
        }
        return split_toml_items(body)
            .map_err(|e| format!("line {lineno}: {e}"))?
            .into_iter()
            .map(|item| toml_scalar(item.trim(), lineno))
            .collect::<Result<Vec<_>, _>>()
            .map(Json::Arr);
    }
    toml_scalar(s, lineno)
}

/// Split a flat array body on commas, respecting quoted strings.
fn split_toml_items(body: &str) -> Result<Vec<&str>, String> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_str {
        return Err("unterminated string in array".into());
    }
    items.push(&body[start..]);
    Ok(items)
}

fn toml_scalar(s: &str, lineno: usize) -> Result<Json, String> {
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("line {lineno}: unterminated string"))?;
        if body.contains('"') || body.contains('\\') {
            return Err(format!(
                "line {lineno}: escapes/embedded quotes unsupported in {s:?}"
            ));
        }
        return Ok(Json::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(Json::Bool(true)),
        "false" => return Ok(Json::Bool(false)),
        _ => {}
    }
    // Integer or float literal; underscores allowed TOML-style.
    let cleaned: String = s.chars().filter(|&c| c != '_').collect();
    if cleaned.parse::<i64>().is_ok() || cleaned.parse::<f64>().is_ok() {
        return Ok(Json::Num(cleaned));
    }
    Err(format!("line {lineno}: unrecognized value {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# A scenario with every section.
name = "demo"

[topology]
kind = "opera"
racks = 8

[workload]
kind = "incast"
senders = [4, 8]   # axis
flow_kb = 15

[switch]
policy = ["ndp_trim", "droptail"]

[transport]
kind = "ndp"

[run]
duration_ms = 40
seed = 3
"#;

    #[test]
    fn toml_example_parses_and_sweeps() {
        let doc = parse_toml(EXAMPLE).unwrap();
        let sc = Scenario::from_doc(&doc, "fallback").unwrap();
        assert_eq!(sc.name, "demo");
        assert_eq!(sc.topology, "opera");
        assert_eq!(sc.racks, Some(8));
        assert_eq!(sc.flow_bytes, 15_000);
        assert_eq!(sc.seed, 3);
        assert_eq!(sc.point_count(), 4);
        let pts = sc.points();
        assert_eq!((pts[0].policy.as_str(), pts[0].senders), ("ndp_trim", 4));
        assert_eq!((pts[3].policy.as_str(), pts[3].senders), ("droptail", 8));
        assert!(!sc.trace.enabled());
    }

    #[test]
    fn json_form_parses_identically() {
        let json = r#"{
            "name": "demo",
            "topology": {"kind": "expander"},
            "workload": {"kind": "victim", "senders": 8, "flow_bytes": 30000},
            "switch": {"policy": "pfc"},
            "transport": {"kind": "gbn"},
            "run": {"duration_ms": 10, "seed": 1},
            "trace": {"jsonl": "t.jsonl", "pcapng": "t.pcapng"}
        }"#;
        let sc = Scenario::from_doc(&Json::parse(json).unwrap(), "x").unwrap();
        assert_eq!(sc.topology, "expander");
        assert_eq!(sc.flow_bytes, 30_000);
        assert_eq!(sc.trace.jsonl.as_deref(), Some("t.jsonl"));
        assert!(sc.trace.enabled());
        assert_eq!(sc.point_count(), 1);
    }

    #[test]
    fn unknown_keys_are_named_errors() {
        let doc = parse_toml(EXAMPLE.replace("[switch]", "[snitch]").as_str());
        // Unknown table name caught at scenario level.
        let err = Scenario::from_doc(&doc.unwrap(), "x").unwrap_err();
        assert!(err.contains("snitch"), "{err}");

        let doc = parse_toml(EXAMPLE.replace("racks = 8", "rakcs = 8").as_str()).unwrap();
        let err = Scenario::from_doc(&doc, "x").unwrap_err();
        assert!(err.contains("rakcs"), "{err}");
    }

    #[test]
    fn missing_required_fields_are_errors() {
        let doc = parse_toml(EXAMPLE.replace("kind = \"incast\"", "").as_str()).unwrap();
        let err = Scenario::from_doc(&doc, "x").unwrap_err();
        assert_eq!(
            err,
            "scenario: workload.kind: missing (keys present: flow_kb, senders)"
        );
    }

    /// Lengths and durations taken from the file are bounded where they
    /// are read, in both spellings: a duration that would wrap the
    /// nanosecond clock, and sender / rack counts that would be allocated
    /// for, are named errors; the largest legal values parse.
    #[test]
    fn hostile_lengths_and_durations_are_named_errors() {
        let json = |topology: &str, senders: &str, duration_ms: &str| {
            let text = format!(
                r#"{{"topology": {{"kind": "opera"{topology}}},
                    "workload": {{"kind": "incast", "senders": {senders}, "flow_kb": 6}},
                    "switch": {{"policy": "ndp_trim"}}, "transport": {{"kind": "ndp"}},
                    "run": {{"duration_ms": {duration_ms}}}}}"#
            );
            Scenario::from_doc(&Json::parse(&text).unwrap(), "x")
        };
        let toml = |from: &str, to: &str| {
            assert!(EXAMPLE.contains(from));
            Scenario::from_doc(&parse_toml(&EXAMPLE.replace(from, to)).unwrap(), "x")
        };
        let too_long = "scenario: run.duration_ms: too large";
        for ms in ["18446744073710", "18446744073709551615"] {
            assert_eq!(json("", "2", ms).unwrap_err(), too_long);
            let line = format!("duration_ms = {ms}");
            assert_eq!(toml("duration_ms = 40", &line).unwrap_err(), too_long);
        }
        let longest = json("", "2", "18446744073709").unwrap().duration;
        assert_eq!(longest.as_ns(), 18_446_744_073_709_000_000);

        let many = "scenario: workload.senders: 1000000000000 is over 100000";
        assert_eq!(json("", "1000000000000", "5").unwrap_err(), many);
        assert_eq!(json("", "[2, 1000000000000]", "5").unwrap_err(), many);
        let line = "senders = [4, 1_000_000_000_000]";
        assert_eq!(toml("senders = [4, 8]", line).unwrap_err(), many);
        assert_eq!(json("", "100000", "5").unwrap().senders, [MAX_SENDERS]);

        let wide = "scenario: topology.racks: 4000000000 is over 432";
        assert_eq!(
            json(r#", "racks": 4000000000"#, "2", "5").unwrap_err(),
            wide
        );
        assert_eq!(toml("racks = 8", "racks = 4000000000").unwrap_err(), wide);
        assert_eq!(toml("racks = 8", "racks = 432").unwrap().racks, Some(432));
    }

    /// A flow size is bounded where it is read, in both fields and both
    /// spellings: 6.2 TB used to wrap the transports' `u32` segment count
    /// and run 0 of 8 flows to exit 0. The bound itself parses.
    #[test]
    fn hostile_flow_sizes_are_named_errors() {
        let json = |size: &str| {
            let text = format!(
                r#"{{"topology": {{"kind": "opera"}},
                    "workload": {{"kind": "incast", "senders": 8, {size}}},
                    "switch": {{"policy": "ndp_trim"}}, "transport": {{"kind": "ndp"}},
                    "run": {{"duration_ms": 1}}}}"#
            );
            Scenario::from_doc(&Json::parse(&text).unwrap(), "x")
        };
        let toml = |line: &str| {
            let text = EXAMPLE.replace("flow_kb = 15", line);
            Scenario::from_doc(&parse_toml(&text).unwrap(), "x")
        };
        let kb = "scenario: workload.flow_kb: 6200000000 is over 10000000";
        assert_eq!(json(r#""flow_kb": 6200000000"#).unwrap_err(), kb);
        assert_eq!(toml("flow_kb = 6_200_000_000").unwrap_err(), kb);
        let wraps = "scenario: workload.flow_kb: 18446744073709551615 is over 10000000";
        assert_eq!(toml("flow_kb = 18446744073709551615").unwrap_err(), wraps);
        let bytes = "scenario: workload.flow_bytes: 10000000001 is over 10000000000";
        assert_eq!(json(r#""flow_bytes": 10000000001"#).unwrap_err(), bytes);
        assert_eq!(toml("flow_bytes = 10_000_000_001").unwrap_err(), bytes);

        assert_eq!(
            json(r#""flow_kb": 10000000"#).unwrap().flow_bytes,
            MAX_FLOW_BYTES
        );
        assert_eq!(
            toml("flow_bytes = 10_000_000_000").unwrap().flow_bytes,
            MAX_FLOW_BYTES
        );
    }

    #[test]
    fn tracing_rejects_multi_point_scenarios() {
        let text = format!("{EXAMPLE}\n[trace]\njsonl = \"t.jsonl\"\n");
        let err = Scenario::from_doc(&parse_toml(&text).unwrap(), "x").unwrap_err();
        assert!(err.contains("single-point"), "{err}");
    }

    #[test]
    fn toml_parser_rejects_malformed_input() {
        assert!(parse_toml("[unclosed\n").is_err());
        assert!(parse_toml("key\n").is_err());
        assert!(parse_toml("k = \"unterminated\n").is_err());
        assert!(parse_toml("k = [1, 2\n").is_err());
        assert!(parse_toml("k = 1\nk = 2\n").is_err());
        assert!(parse_toml("[a]\n[a]\n").is_err());
        assert!(parse_toml("k = nope\n").is_err());
    }

    #[test]
    fn toml_comments_and_underscores() {
        let doc = parse_toml("x = 1_000 # one thousand\ns = \"a # b\"\n").unwrap();
        assert_eq!(doc.get("x").unwrap().as_u64(), Some(1000));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a # b"));
    }
}
