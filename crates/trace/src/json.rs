//! The workspace's one JSON codec: an exact-text reader and a string
//! escaper.
//!
//! Every JSON document the tooling reads or writes goes through here:
//! run journals, the serve cache and both daemons' wire protocols, trace
//! exports, `BENCH_sweep.json`, lint reports, baselines and SARIF, and
//! structured logs.
//!
//! The reader keeps numbers as their source text, so 64-bit (and the
//! histogram-sum 128-bit) integers round-trip exactly: `f64` would lose
//! precision above 2^53 and break the byte-identity the journal exists
//! to guarantee. It is linear in its input (strings are copied in runs
//! between escapes) and caps nesting at [`MAX_DEPTH`], so hostile input
//! from the network is an error, never a stack overflow. Objects keep
//! key order in a `Vec` (no hash maps in sim-facing crates).

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered `(key, value)` pairs, as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed,
    /// trailing data rejected).
    ///
    /// # Errors
    ///
    /// A `String` describing the first syntax error, with a byte offset.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { src, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value under `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact `u64`, when `self` is an integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as an exact `u128`, when `self` is an integer number.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, when `self` is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The elements, when `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, when `self` is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string literal. Quotes,
/// backslashes, `\n`, `\r` and `\t` get their short escapes; other
/// control characters become `\u00XX`; everything else is copied as is.
pub fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so `run..i` always falls
    // on char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(s.get(run..i).unwrap_or_default());
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
}

/// `s` as a quoted JSON string literal (see [`push_quoted`]).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// One value; `depth` counts the arrays/objects enclosing it.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        let rest = self.src.get(self.pos..).unwrap_or_default();
        if rest.starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// `-?digits(.digits)?([eE][+-]?digits)?`, kept as source text.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let mut ok = self.digits() > 0;
        if self.eat(b'.') {
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            ok &= self.digits() > 0;
        }
        match self.src.get(start..self.pos) {
            Some(text) if ok => Ok(Json::Num(text.to_string())),
            _ => Err(format!("bad number at byte {start}")),
        }
    }

    /// A string starting at its opening quote. Unescaped runs are copied
    /// as whole slices, so the cost is linear in the string's length.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(self.src.get(start..self.pos).unwrap_or_default());
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    });
                }
            }
        }
    }

    /// The code point of a `\uXXXX` escape (just past the `u`),
    /// joining a UTF-16 surrogate pair into one character.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            let lo = if self.eat(b'\\') && self.eat(b'u') {
                self.hex4()?
            } else {
                0
            };
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("unpaired surrogate before byte {}", self.pos));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("invalid code point before byte {}", self.pos))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|e| e.to_string())
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.list_end(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(format!("expected `:` at byte {}", self.pos));
            }
            pairs.push((key, self.value(depth)?));
            if self.list_end(b'}')? {
                return Ok(Json::Obj(pairs));
            }
        }
    }

    /// After an element: `true` at the closing bracket, `false` after a
    /// comma (another element follows).
    fn list_end(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        if self.eat(b',') {
            Ok(false)
        } else if self.eat(close) {
            Ok(true)
        } else {
            Err(format!(
                "expected `,` or `{}` at byte {}",
                char::from(close),
                self.pos
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"schema": "barre-lint/2", "n": 3, "ok": true,
                      "items": [{"rule": "D001", "line": 12}, null],
                      "msg": "a \"quoted\" path\\n", "x": -2.5e+3}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("barre-lint/2"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let items = v.get("items").and_then(Json::as_arr).expect("arr");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("rule").and_then(Json::as_str), Some("D001"));
        assert_eq!(items[1], Json::Null);
        assert_eq!(
            v.get("msg").and_then(Json::as_str),
            Some("a \"quoted\" path\\n")
        );
        assert_eq!(v.get("x"), Some(&Json::Num("-2.5e+3".to_string())));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(-2500.0));
    }

    #[test]
    fn decodes_escapes_and_unicode() {
        let v = Json::parse(r#""tab\there é 😀 é 😀 \r\u0009\/\b\f""#).expect("parses");
        assert_eq!(v.as_str(), Some("tab\there é 😀 é 😀 \r\t/\u{8}\u{c}"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude00""#).is_err(), "lone low surrogate");
        assert!(Json::parse(r#""\u+abc""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{} trailing",
            r#""\q""#,
            "{\"a\":}",
            "[1 2]",
            "-",
            "1.",
            "1e",
            "01x",
            "tru",
            "{1:2}",
            "\"open",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn roundtrips_lint_report_shape() {
        // The shape the analyzer's report emits must stay parseable.
        let doc = r#"{"files_scanned": 2, "waived": 0, "diagnostics": []}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("files_scanned").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("diagnostics").and_then(Json::as_arr), Some(&[][..]));
    }

    #[test]
    fn numbers_keep_their_source_text() {
        let v = Json::parse(&format!("[{}, {}, 0.1]", u64::MAX, u128::MAX)).expect("parse");
        let arr = v.as_arr().expect("arr");
        assert_eq!(arr[0].as_u64(), Some(u64::MAX));
        assert_eq!(arr[1].as_u128(), Some(u128::MAX));
        assert_eq!(arr[1].as_u64(), None, "no silent truncation");
        assert_eq!(arr[2], Json::Num("0.1".to_string()));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&deep).expect_err("one level too deep");
        assert!(err.contains("nesting"), "{err}");
        // Far past any real stack: rejected at the cap, unclosed or not.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn four_megabyte_single_line_document_parses() {
        // One long string plus a long array on one line: a reader that
        // rescans from the cursor per character would take minutes here.
        let long = "x".repeat(3 << 20);
        let nums = vec!["123456789"; 150_000].join(",");
        let doc = format!("{{\"s\":\"{long}\\n\",\"a\":[{nums}]}}");
        assert!(doc.len() >= 4 << 20);
        let v = Json::parse(&doc).expect("parses");
        assert_eq!(
            v.get("s").and_then(Json::as_str).map(str::len),
            Some(long.len() + 1)
        );
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(150_000)
        );
    }

    #[test]
    fn quote_escapes_and_round_trips() {
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("x\ny\r\tz"), "\"x\\ny\\r\\tz\"");
        assert_eq!(quote("\u{1}\u{1f}é"), "\"\\u0001\\u001fé\"");
        let mut out = String::from("k=");
        push_quoted(&mut out, "");
        assert_eq!(out, "k=\"\"");
        let nasty: String = (0u32..0x80)
            .filter_map(char::from_u32)
            .chain("é😀".chars())
            .collect();
        assert_eq!(Json::parse(&quote(&nasty)), Ok(Json::Str(nasty)));
    }
}
