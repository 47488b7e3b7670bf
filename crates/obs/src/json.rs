//! Minimal JSON: a string-building writer and a strict recursive-descent
//! parser.
//!
//! The workspace builds offline with no serialization crate, so every
//! JSON document it writes (Chrome traces, gdrprof reports, diffs) is
//! hand-rolled here. The parser reads back what users hand the tools:
//! Chrome traces (`gdrprof`, through [`crate::chrome::decode`]), report
//! files (`gdrprof diff`) and `thresholds-v1` tables. It is small but
//! honest: escapes, nesting and number forms are handled, and anything
//! malformed is an `Err`, never a panic. Nesting deeper than
//! [`MAX_DEPTH`] is an `Err` too, so a hostile document cannot overflow
//! the stack.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }
}

/// Append a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
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

/// Append a finite f64. Integral values print without a fraction so
/// traces stay byte-stable across platforms.
pub fn write_num(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "non-finite number in trace");
    if v == v.trunc() && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Incremental writer for one JSON object: `field(...)` chains append
/// `"key":value` pairs with comma management.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjWriter<'a> {
    pub fn new(out: &'a mut String) -> ObjWriter<'a> {
        out.push('{');
        ObjWriter { out, first: true }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(self.out, k);
        self.out.push(':');
        self.out
    }

    pub fn str_field(&mut self, k: &str, v: &str) -> &mut Self {
        let out = self.key(k);
        write_str(out, v);
        self
    }

    pub fn num_field(&mut self, k: &str, v: f64) -> &mut Self {
        let out = self.key(k);
        write_num(out, v);
        self
    }

    pub fn u64_field(&mut self, k: &str, v: u64) -> &mut Self {
        let out = self.key(k);
        let _ = write!(out, "{v}");
        self
    }

    pub fn bool_field(&mut self, k: &str, v: bool) -> &mut Self {
        let out = self.key(k);
        let _ = write!(out, "{v}");
        self
    }

    /// A number field, or `null` for `None`.
    pub fn opt_num_field(&mut self, k: &str, v: Option<f64>) -> &mut Self {
        match v {
            Some(v) => self.num_field(k, v),
            None => {
                self.key(k).push_str("null");
                self
            }
        }
    }

    /// A nested-object field that `fill` writes.
    pub fn obj_field(&mut self, k: &str, fill: impl FnOnce(&mut ObjWriter)) -> &mut Self {
        write_obj(self.key(k), fill);
        self
    }

    /// An array field of one object per item, each written by `fill`.
    pub fn arr_field<T>(
        &mut self,
        k: &str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut ObjWriter, T),
    ) -> &mut Self {
        let out = self.key(k);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_obj(out, |o| fill(o, item));
        }
        out.push(']');
        self
    }

    /// Open a raw-valued field: the caller writes the value itself
    /// into the returned buffer.
    pub fn raw_field(&mut self, k: &str) -> &mut String {
        self.key(k)
    }

    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Append the object `fill` writes to `out`.
fn write_obj(out: &mut String, fill: impl FnOnce(&mut ObjWriter)) {
    let mut o = ObjWriter::new(out);
    fill(&mut o);
    o.finish();
}

/// The JSON document of the one object `fill` writes.
pub fn object(fill: impl FnOnce(&mut ObjWriter)) -> String {
    let mut out = String::new();
    write_obj(&mut out, fill);
    out
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level; every document the workspace writes
/// nests at most six.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|b| b as char), self.i)),
        }
    }

    /// Parse the array or object at the cursor one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.i));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let v = self.value()?;
            map.insert(k, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            // copy the run up to the next quote or escape, validated once
            let run = self.b[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(self.b.len() - self.i);
            let text = std::str::from_utf8(&self.b[self.i..self.i + run])
                .map_err(|_| "invalid utf-8 in string")?;
            s.push_str(text);
            self.i += run;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                // the run stopped at a backslash
                Some(_) => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|b| b as char))),
                    }
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_parses_back() {
        let mut out = String::new();
        let mut o = ObjWriter::new(&mut out);
        o.str_field("name", "a\"b\\c\nd")
            .num_field("ts", 1.5)
            .u64_field("big", u64::MAX)
            .bool_field("ok", true);
        o.finish();
        let v = parse(&out).unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "a\"b\\c\nd");
        assert_eq!(v.get("ts").unwrap().as_f64().unwrap(), 1.5);
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":[true,false]},"e":-1.25e2}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_f64().unwrap(), -125.0);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1}x"#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn multi_byte_utf8_round_trips() {
        let text = "µs → 日本語 \u{1F680} \"q\" tail";
        let mut out = String::new();
        let mut o = ObjWriter::new(&mut out);
        o.str_field("k", text);
        o.finish();
        assert_eq!(parse(&out).unwrap().get("k").unwrap().as_str().unwrap(), text);
        // escapes between multi-byte runs, and a run ending the document
        assert_eq!(parse("\"é\\n√\\u00e9ü\"").unwrap(), Value::Str("é\n√éü".into()));
        assert_eq!(parse("\"日本").unwrap_err(), "unterminated string");
    }

    #[test]
    fn rejects_invalid_utf8_in_strings() {
        // `parse` takes `&str`; feed the string scanner raw bytes
        let string = |b: &[u8]| Parser { b, i: 0, depth: 0 }.string();
        assert_eq!(string(b"\"ok\""), Ok("ok".into()));
        assert_eq!(string(b"\"a\xffb\"").unwrap_err(), "invalid utf-8 in string");
        // a multi-byte scalar cut short by the closing quote, or by an escape
        assert_eq!(string(b"\"\xe6\x97\"").unwrap_err(), "invalid utf-8 in string");
        assert_eq!(string(b"\"\xe6\\n\"").unwrap_err(), "invalid utf-8 in string");
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        // one level more fails at the bracket that opens it, long before
        // the recursion could exhaust the stack
        assert_eq!(
            parse(&deep(50_000)).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let obj = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&obj).unwrap_err().starts_with("nesting deeper than"));
    }

    #[test]
    fn integral_numbers_have_no_fraction() {
        let mut out = String::new();
        write_num(&mut out, 42.0);
        assert_eq!(out, "42");
    }
}
