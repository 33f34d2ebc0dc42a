//! Minimal JSON emission and parsing for the bench binaries' documents
//! (`--json`, `--out`, `--check`).
//!
//! The workspace builds offline (no serde); this is the small subset
//! the machine-readable outputs need: a value tree, a deterministic
//! renderer, and a parser so golden-figure tests can compare committed
//! artifacts numerically instead of as float strings. Object keys keep
//! insertion order so two runs of the same experiment produce
//! byte-identical documents; floats render through Rust's
//! shortest-round-trip `Display`, so a reader recovers the exact `f64`
//! the simulation produced.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also used for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Double; NaN/±inf render as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parse a JSON document. Integers without a fraction or exponent
    /// come back as [`Json::U64`] (or [`Json::I64`] when negative);
    /// everything else numeric as [`Json::F64`]. Trailing garbage
    /// after the top-level value is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, whatever variant carries it.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Structural equality with numeric tolerance: numbers are equal
    /// when `|a - b| <= rel_tol * max(1, |a|, |b|)` regardless of
    /// variant (`U64(3)` matches `F64(3.0)`), objects must hold the
    /// same key set (order-insensitively) with pairwise-equal values,
    /// and everything else compares exactly. This is what golden tests
    /// use instead of float string equality.
    pub fn approx_eq(&self, other: &Json, rel_tol: f64) -> bool {
        if let (Some(a), Some(b)) = (self.as_f64(), other.as_f64()) {
            return (a - b).abs() <= rel_tol * a.abs().max(b.abs()).max(1.0);
        }
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq(y, rel_tol))
            }
            (Json::Obj(a), Json::Obj(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .all(|(k, v)| other.get(k).is_some_and(|w| v.approx_eq(w, rel_tol)))
            }
            _ => false,
        }
    }

    /// Render compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Render with two-space indentation, one key or element per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `depth` is `None` for the compact form, else the nesting depth
    /// of this value in the indented one.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_members(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => write_members(
                out,
                depth,
                "{}",
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// An array's elements or an object's members between `brackets`,
/// one per line at `depth + 1` when indenting (empty ones stay `[]` /
/// `{}`).
fn write_members<'a>(
    out: &mut String,
    depth: Option<usize>,
    brackets: &str,
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let (open, close) = brackets.split_at(1);
    let depth = depth.filter(|_| members.len() > 0);
    out.push_str(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = depth {
            out.push('\n');
            push_indent(out, d + 1);
        }
        if let Some(k) = key {
            write_escaped(out, k);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        value.write(out, depth.map(|d| d + 1));
    }
    if let Some(d) = depth {
        out.push('\n');
        push_indent(out, d);
    }
    out.push_str(close);
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // `Display` for f64 is the shortest string that round-trips, but
    // omits any fraction for integral values; keep a `.0` so readers
    // that distinguish int/float types see a float.
    let s = format!("{x}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected '{word}' at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((k, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            // Surrogate pairs arrive as two \u escapes.
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape before offset {}", self.pos)
                            })?);
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched: take
                    // the whole char from the source str.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| format!("short \\u escape at offset {}", self.pos))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at offset {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !s.contains(['.', 'e', 'E']) {
            if s.starts_with('-') {
                if let Ok(n) = s.parse::<i64>() {
                    return Ok(Json::I64(n));
                }
            } else if let Ok(n) = s.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        s.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number '{s}' at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_containers() {
        let v = Json::obj([
            ("name", Json::str("fig4")),
            ("n", Json::U64(3)),
            ("neg", Json::I64(-2)),
            ("bw", Json::F64(1.25)),
            ("whole", Json::F64(2.0)),
            ("bad", Json::F64(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("row", Json::arr([Json::Null, Json::U64(7)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"fig4","n":3,"neg":-2,"bw":1.25,"whole":2.0,"bad":null,"ok":true,"row":[null,7]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn floats_round_trip() {
        for x in [0.1, 1.0 / 3.0, 123456.789, 1e-12, -0.0] {
            let s = Json::F64(x).render();
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn parse_inverts_render() {
        let v = Json::obj([
            ("name", Json::str("fig4 \"x\"\n")),
            ("n", Json::U64(3)),
            ("neg", Json::I64(-2)),
            ("bw", Json::F64(1.0 / 3.0)),
            ("whole", Json::F64(2.0)),
            ("ok", Json::Bool(false)),
            (
                "row",
                Json::arr([Json::Null, Json::U64(7), Json::Str(String::new())]),
            ),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let back = Json::parse(&v.render()).unwrap();
        // `2.0` re-parses as an F64 with the identical bits; everything
        // else round-trips variant-exactly.
        assert_eq!(back, v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        assert_eq!(
            Json::parse(r#""aA\n\t\"\\\/é😀°""#).unwrap(),
            Json::str("aA\n\t\"\\/é😀°")
        );
        assert_eq!(Json::parse(" -12 ").unwrap(), Json::I64(-12));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1] trailing").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn approx_eq_tolerates_numeric_noise_only() {
        let a = Json::parse(r#"{"x":1.0,"y":[2,{"z":3.0}],"s":"v"}"#).unwrap();
        let b = Json::parse(r#"{"y":[2.0000000001,{"z":3}],"x":1,"s":"v"}"#).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        // Beyond tolerance, wrong string, missing key: all unequal.
        let far = Json::parse(r#"{"x":1.01,"y":[2,{"z":3.0}],"s":"v"}"#).unwrap();
        assert!(!a.approx_eq(&far, 1e-9));
        assert!(a.approx_eq(&far, 0.1));
        let diff = Json::parse(r#"{"x":1.0,"y":[2,{"z":3.0}],"s":"w"}"#).unwrap();
        assert!(!a.approx_eq(&diff, 1e-9));
        let short = Json::parse(r#"{"x":1.0,"y":[2,{"z":3.0}]}"#).unwrap();
        assert!(!a.approx_eq(&short, 1e-9));
    }

    #[test]
    fn pretty_matches_compact_semantics() {
        let v = Json::obj([
            ("a", Json::arr([Json::U64(1), Json::U64(2)])),
            ("b", Json::obj([("c", Json::Null)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": null\n  },\n  \"empty\": []\n}"
        );
    }
}
