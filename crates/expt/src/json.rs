//! Minimal JSON reader, and the one strict decoder every document of
//! this crate is read through.
//!
//! The workspace builds offline (no serde). [`Json::parse`] covers full
//! JSON syntax with one twist: numbers keep their **raw literal text**
//! ([`Json::Num`]), so 64-bit seeds and rendered cell values round-trip
//! byte-exactly. It is safe on hostile text: a repeated object key is an
//! error (not last-one-wins) and nesting is bounded by [`MAX_DEPTH`].
//!
//! [`Fields`] is the decoder on top of it. Table documents, golden
//! manifests and scenarios (`bench::scenario`) are each a list of typed
//! field reads against one `Fields`, closed by [`Fields::finish`], which
//! rejects any key never asked for. Every
//! error has one shape, `<document>: <path>: <what>`:
//!
//! ```text
//! table document: format: unsupported format 2 (this build reads format 1)
//! table document: shard: expected an [i, n] pair of non-negative integers
//! scenario: workload.kind: missing (keys present: flow_kb, senders)
//! ```

use std::collections::BTreeMap;

/// Deepest array/object nesting [`Json::parse`] accepts (documents nest
/// three deep): a file of two million `[` is an error, not a stack
/// overflow.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw literal text (lossless for u64).
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved; a repeated key is a
    /// parse error.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// An object of the given members.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.num()
    }

    /// The number as `usize`, if this is an integral number in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.num()
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.num()
    }

    /// True when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Render back to JSON text, pretty-printed with two-space indents
    /// and sorted object keys. Numbers are emitted as their raw literal
    /// text, so `parse → render → parse` is lossless — the property the
    /// append-only `BENCH_*.json` trajectory relies on when it rewrites
    /// the document with one more entry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => out.push_str(&quoted(s)),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&quoted(k));
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let mut m = BTreeMap::new();
                self.items(b'}', |p| {
                    let key_at = p.pos;
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    if m.contains_key(&key) {
                        return Err(format!("duplicate key {key:?} at byte {key_at}"));
                    }
                    m.insert(key, p.value()?);
                    Ok(())
                })?;
                Ok(Json::Obj(m))
            }
            Some(b'[') => {
                let mut v = Vec::new();
                self.items(b']', |p| p.value().map(|item| v.push(item)))?;
                Ok(Json::Arr(v))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// An array or object body: the opening bracket (already peeked),
    /// then comma-separated items, each consumed by `item`, up to
    /// `close`. The one place nesting deepens, so the one place it is
    /// bounded.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => {
                        return Err(format!(
                            "expected ',' or '{}' at byte {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair: our writer never emits
                            // them, but decode defensively.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        char::from_u32(
                                            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00),
                                        )
                                    } else {
                                        None // high surrogate not followed by a low one
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or("invalid \\u escape")?);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let step = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    s.push_str(std::str::from_utf8(&rest[..step]).map_err(|e| e.to_string())?);
                    self.pos += step;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        self.pos += 4;
        u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.is_empty() || text == "-" {
            return Err(format!("malformed number at byte {start}"));
        }
        Ok(Json::Num(text.to_string()))
    }
}

/// `s` escaped and quoted as a JSON string.
pub fn quoted(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Why a value did not decode as the type asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bad {
    /// Where below the value the problem is (`[3][1]`); empty at the
    /// value itself.
    pub at: String,
    /// What was expected or wrong.
    pub what: String,
}

impl Bad {
    /// A problem at the value itself.
    pub fn new(what: impl Into<String>) -> Bad {
        Bad {
            at: String::new(),
            what: what.into(),
        }
    }
}

/// A type [`Fields`] can decode from one JSON value.
pub trait FromJson: Sized {
    /// Decode `j`, or say what it should have been.
    fn from_json(j: &Json) -> Result<Self, Bad>;
}

macro_rules! from_json_scalar {
    ($($t:ty: $accessor:ident, $what:literal;)+) => {$(
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, Bad> {
                j.$accessor().map(Into::into).ok_or_else(|| Bad::new($what))
            }
        }
    )+};
}

from_json_scalar! {
    String: as_str, "expected a string";
    u64: as_u64, "expected a non-negative integer";
    usize: as_usize, "expected a non-negative integer";
    bool: as_bool, "expected a boolean";
}

/// `null` or a `T`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, Bad> {
        if j.is_null() {
            Ok(None)
        } else {
            T::from_json(j).map(Some)
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, Bad> {
        j.as_arr()
            .ok_or_else(|| Bad::new("expected an array"))?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                T::from_json(v).map_err(|b| Bad {
                    at: format!("[{i}]{}", b.at),
                    what: b.what,
                })
            })
            .collect()
    }
}

/// An `[i, n]` pair (a shard).
impl FromJson for (usize, usize) {
    fn from_json(j: &Json) -> Result<Self, Bad> {
        match Vec::<usize>::from_json(j).as_deref() {
            Ok(&[i, n]) => Ok((i, n)),
            _ => Err(Bad::new("expected an [i, n] pair of non-negative integers")),
        }
    }
}

/// One `T` or a non-empty array of them: a scenario sweep axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneOrMany<T>(pub Vec<T>);

impl<T: FromJson> FromJson for OneOrMany<T> {
    fn from_json(j: &Json) -> Result<Self, Bad> {
        match j {
            Json::Arr(xs) if xs.is_empty() => Err(Bad::new("empty array")),
            Json::Arr(_) => Vec::from_json(j).map(OneOrMany),
            _ => T::from_json(j).map(|x| OneOrMany(vec![x])),
        }
    }
}

/// Decode the JSON text of a `doc` document: parse it, hand the root
/// object to `read`, then reject every root key `read` never asked for.
pub fn decode<T>(
    doc: &str,
    text: &str,
    read: impl FnOnce(&mut Fields<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let j = Json::parse(text).map_err(|e| format!("{doc}: {e}"))?;
    let mut f = Fields::new(doc, &j)?;
    let value = read(&mut f)?;
    f.finish()?;
    Ok(value)
}

/// Strict reader over one JSON object: typed reads by key, then
/// [`Fields::finish`] to reject every key nothing asked for. Every
/// error starts with the document kind and the object's path in it.
#[derive(Debug)]
pub struct Fields<'a> {
    doc: &'a str,
    path: String,
    members: &'a BTreeMap<String, Json>,
    asked: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    /// Reader over the root object `j` of a `doc` document.
    pub fn new(doc: &'a str, j: &'a Json) -> Result<Fields<'a>, String> {
        Fields::at(doc, String::new(), j)
    }

    fn at(doc: &'a str, path: String, j: &'a Json) -> Result<Fields<'a>, String> {
        match j {
            Json::Obj(members) => Ok(Fields {
                doc,
                path,
                members,
                asked: Vec::new(),
            }),
            _ => Err(format!("{}: expected an object", located(doc, &path))),
        }
    }

    fn child_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// An error about field `key` of this object, in the shared shape.
    pub fn bad(&self, key: &str, what: impl std::fmt::Display) -> String {
        format!("{}: {what}", located(self.doc, &self.child_path(key)))
    }

    /// The error for a required `key` that is absent. It lists the keys
    /// that are present, so a misspelt key is still named.
    fn missing(&self, key: &str) -> String {
        let present: Vec<&str> = self.members.keys().map(String::as_str).collect();
        self.bad(
            key,
            format!("missing (keys present: {})", present.join(", ")),
        )
    }

    fn lookup(&mut self, key: &'static str) -> Option<&'a Json> {
        self.asked.push(key);
        self.members.get(key)
    }

    /// Field `key`, which may be absent.
    pub fn opt<T: FromJson>(&mut self, key: &'static str) -> Result<Option<T>, String> {
        self.lookup(key)
            .map(|j| T::from_json(j).map_err(|b| self.bad(&format!("{key}{}", b.at), b.what)))
            .transpose()
    }

    /// Field `key`, which must be present.
    pub fn req<T: FromJson>(&mut self, key: &'static str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| self.missing(key))
    }

    /// The nested object at `key`, which may be absent.
    pub fn opt_obj(&mut self, key: &'static str) -> Result<Option<Fields<'a>>, String> {
        let path = self.child_path(key);
        self.lookup(key)
            .map(|j| Fields::at(self.doc, path, j))
            .transpose()
    }

    /// The nested object at `key`, which must be present.
    pub fn req_obj(&mut self, key: &'static str) -> Result<Fields<'a>, String> {
        self.opt_obj(key)?.ok_or_else(|| self.missing(key))
    }

    /// The document's `"format"` tag, which must be `supported`.
    pub fn format(&mut self, supported: u64) -> Result<(), String> {
        match self.req::<u64>("format")? {
            tag if tag == supported => Ok(()),
            tag => Err(self.bad(
                "format",
                format!("unsupported format {tag} (this build reads format {supported})"),
            )),
        }
    }

    /// Once every read is made: any key none of them asked for is an
    /// error naming it, its place and the keys that are known.
    pub fn finish(&self) -> Result<(), String> {
        let Some(stray) = self
            .members
            .keys()
            .find(|k| !self.asked.contains(&k.as_str()))
        else {
            return Ok(());
        };
        let mut known = self.asked.clone();
        known.sort_unstable();
        known.dedup();
        Err(format!(
            "{}: unknown key {stray:?} (known: {})",
            located(self.doc, &self.path),
            known.join(", ")
        ))
    }
}

/// `<doc>` for the root object, `<doc>: <path>` below it: how every
/// error of a [`Fields`] starts.
fn located(doc: &str, path: &str) -> String {
    if path.is_empty() {
        doc.to_string()
    } else {
        format!("{doc}: {path}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_structure() {
        let j = Json::parse(r#"{"a": [1, -2.5, 1e3], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(j.get("b").unwrap().as_str(), Some("x\ny"));
        assert!(j.get("c").unwrap().is_null());
        assert_eq!(j.get("d").unwrap().as_bool(), Some(true));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn numbers_keep_raw_text() {
        // u64::MAX does not fit in f64; the raw literal must survive.
        let j = Json::parse("{\"seed\": 18446744073709551615}").unwrap();
        assert_eq!(j.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(j.get("seed").unwrap().as_usize(), Some(usize::MAX));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1f}µ→";
        assert_eq!(
            Json::parse(&quoted(original)).unwrap().as_str(),
            Some(original)
        );
    }

    #[test]
    fn errors() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("-").is_err());
        // Lone or mismatched surrogates are errors, not panics.
        assert!(Json::parse(r#""\ud800""#).is_err());
        assert!(Json::parse(r#""\ud800A""#).is_err());
        assert!(Json::parse(r#""\ud800\u0041""#).is_err());
        // A well-formed pair still decodes.
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn duplicate_keys_and_deep_nesting_are_errors() {
        assert_eq!(
            Json::parse(r#"{"a": 1, "b": {"c": 2, "c": 3}}"#).unwrap_err(),
            "duplicate key \"c\" at byte 23"
        );
        // Exactly MAX_DEPTH levels parse; one more is an error, and two
        // million more are the same error rather than a stack overflow.
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let too_deep = "nesting deeper than 64 at byte 64";
        assert_eq!(Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err(), too_deep);
        assert_eq!(Json::parse(&"[".repeat(2_000_000)).unwrap_err(), too_deep);
        assert_eq!(
            Json::parse(&"{\"k\":".repeat(2_000_000)).unwrap_err(),
            "nesting deeper than 64 at byte 320"
        );
        // Siblings do not accumulate depth.
        assert!(Json::parse(&format!("[{}]", vec!["[[]]"; 200].join(","))).is_ok());
    }

    #[test]
    fn fields_read_typed_values_and_reject_the_rest() {
        let j = Json::parse(
            r#"{"s": "x", "n": 7, "b": true, "nul": null, "pair": [1, 4],
                "rows": [["a"], ["b", "c"]], "axis": 3, "axes": ["p", "q"],
                "inner": {"v": 1}}"#,
        )
        .unwrap();
        let mut f = Fields::new("doc", &j).unwrap();
        assert_eq!(f.req::<String>("s").unwrap(), "x");
        assert_eq!(f.req::<u64>("n").unwrap(), 7);
        assert!(f.req::<bool>("b").unwrap());
        assert_eq!(f.req::<Option<usize>>("nul").unwrap(), None);
        assert_eq!(f.opt::<Option<usize>>("absent").unwrap().flatten(), None);
        assert_eq!(f.req::<(usize, usize)>("pair").unwrap(), (1, 4));
        assert_eq!(f.req::<Vec<Vec<String>>>("rows").unwrap()[1], ["b", "c"]);
        assert_eq!(f.req::<OneOrMany<usize>>("axis").unwrap().0, [3]);
        assert_eq!(f.req::<OneOrMany<String>>("axes").unwrap().0, ["p", "q"]);
        let mut inner = f.req_obj("inner").unwrap();
        assert_eq!(inner.req::<usize>("v").unwrap(), 1);
        inner.finish().unwrap();
        f.finish().unwrap();

        // One error shape: <document>: <path>: <what>.
        for (got, want) in [
            (f.req::<String>("n").map(drop), "doc: n: expected a string"),
            (
                f.req::<u64>("s").map(drop),
                "doc: s: expected a non-negative integer",
            ),
            (
                f.req::<u64>("gone").map(drop),
                "doc: gone: missing (keys present: axes, axis, b, inner, n, nul, pair, rows, s)",
            ),
            (
                f.req::<Vec<Vec<u64>>>("rows").map(drop),
                "doc: rows[0][0]: expected a non-negative integer",
            ),
            (
                f.req::<(usize, usize)>("rows").map(drop),
                "doc: rows: expected an [i, n] pair of non-negative integers",
            ),
            (f.req_obj("s").map(drop), "doc: s: expected an object"),
            (
                inner.format(1),
                "doc: inner.format: missing (keys present: v)",
            ),
        ] {
            assert_eq!(got.unwrap_err(), want);
        }
        assert_eq!(
            Fields::new("doc", &Json::Null).unwrap_err(),
            "doc: expected an object"
        );

        // A key nothing asked for is named with its place and the known set.
        let mut f = Fields::new("doc", &j).unwrap();
        let mut one = f.req_obj("inner").unwrap();
        assert_eq!(
            one.finish().unwrap_err(),
            "doc: inner: unknown key \"v\" (known: )"
        );
        one.req::<usize>("v").unwrap();
        one.finish().unwrap();
        f.req::<String>("s").unwrap();
        f.req::<String>("s").unwrap();
        assert_eq!(
            f.finish().unwrap_err(),
            "doc: unknown key \"axes\" (known: inner, s)"
        );
    }

    #[test]
    fn render_round_trips_losslessly() {
        let text =
            r#"{"b": [1, 2.5, 18446744073709551615], "a": {"x": null, "y": "q\n"}, "c": true}"#;
        let parsed = Json::parse(text).unwrap();
        let rendered = parsed.render();
        // Pretty output parses back to the identical value (raw number
        // text preserved, u64 seeds included).
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
        assert!(rendered.contains("18446744073709551615"));
        // Rendering is idempotent once pretty-printed.
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn nested_and_empty() {
        let j = Json::parse(r#"{"o": {}, "a": [], "n": [[1], {"k": [2]}]}"#).unwrap();
        assert_eq!(j.get("o"), Some(&Json::Obj(Default::default())));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(
            j.get("n").unwrap().as_arr().unwrap()[1]
                .get("k")
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .as_u64(),
            Some(2)
        );
    }
}
