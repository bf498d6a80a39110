//! Offline stand-in for `serde_json`: writes JSON through the workspace
//! `serde` shim's streaming [`JsonWriter`] and parses it into its [`Value`]
//! tree.
//!
//! The compact encoding is *canonical*: map entries keep declaration order,
//! there is no whitespace, floats use Rust's shortest-roundtrip `{:?}`
//! formatting, and integers print exactly. Equal values therefore always
//! produce byte-identical JSON — the property the experiment engine's
//! content-addressed cache keys on. Non-finite floats (which JSON cannot
//! represent) are written as `null` and read back as NaN.
//!
//! [`to_writer`] and [`to_writer_pretty`] stream into any [`io::Write`]
//! in 64 KiB writes, so memory use does not grow with the output.

use serde::{Deserialize, Serialize};
use std::{fmt, io};

pub use serde::{JsonWriter, Value};

/// Parse, conversion or write error; parse failures carry a byte offset.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.to_string())
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error(e.to_string())
    }
}

/// Lower any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Rebuild a value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_value(v).map_err(Error::from)
}

fn render<T: ?Sized + Serialize>(value: &T, pretty: bool) -> String {
    let mut w = JsonWriter::new(pretty);
    value.write_json(&mut w);
    w.into_string()
}

fn stream<W: io::Write, T: ?Sized + Serialize>(
    mut writer: W,
    value: &T,
    pretty: bool,
) -> Result<(), Error> {
    let mut w = JsonWriter::with_sink(&mut writer, pretty);
    value.write_json(&mut w);
    Ok(w.finish()?)
}

/// Canonical compact JSON (no whitespace, declaration-ordered maps).
pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String, Error> {
    Ok(render(value, false))
}

/// Human-readable JSON with two-space indentation.
pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String, Error> {
    Ok(render(value, true))
}

/// Canonical compact JSON as bytes.
pub fn to_vec<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Stream canonical compact JSON into `writer`. The writer is not flushed.
pub fn to_writer<W: io::Write, T: ?Sized + Serialize>(writer: W, value: &T) -> Result<(), Error> {
    stream(writer, value, false)
}

/// Stream two-space-indented JSON into `writer`. The writer is not flushed.
pub fn to_writer_pretty<W: io::Write, T: ?Sized + Serialize>(
    writer: W,
    value: &T,
) -> Result<(), Error> {
    stream(writer, value, true)
}

/// Parse JSON text into any deserializable value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    from_value(&v)
}

/// Parse JSON bytes (must be UTF-8).
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>().map(Value::Int).map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_is_canonical() {
        let v = Value::Map(vec![
            ("b".into(), Value::Int(2)),
            ("a".into(), Value::Float(0.5)),
            ("s".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
        ]);
        let s = to_string(&Wrapper(v.clone())).unwrap();
        assert_eq!(s, r#"{"b":2,"a":0.5,"s":[true,null]}"#);
        // Parsing the canonical text reproduces the exact tree.
        let back: WrapperDe = from_str(&s).unwrap();
        assert_eq!(back.0, v);
    }

    struct Wrapper(Value);
    impl Serialize for Wrapper {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    struct WrapperDe(Value);
    impl Deserialize for WrapperDe {
        fn from_value(v: &Value) -> Result<Self, serde::Error> {
            Ok(WrapperDe(v.clone()))
        }
    }

    #[test]
    fn float_formatting_distinguishes_ints() {
        assert_eq!(to_string(&0.0f64).unwrap(), "0.0");
        assert_eq!(to_string(&2.0e9f64).unwrap(), "2000000000.0");
        assert_eq!(to_string(&0.02f64).unwrap(), "0.02");
        assert_eq!(to_string(&7u64).unwrap(), "7");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a\"b\\c\nd\te\u{0001}é\u{1F600}".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        // Unicode escapes parse too (the writer emits raw UTF-8).
        let via_escape: String = from_str(r#""é 😀""#).unwrap();
        assert_eq!(via_escape, "é \u{1F600}");
    }

    #[test]
    fn pretty_roundtrips() {
        let v = vec![(1u64, 0.5f64), (2, 1.5)];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<(u64, f64)> = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&x).unwrap(), "null");
            assert_eq!(to_string(&Value::Float(x)).unwrap(), "null");
        }
        assert_eq!(to_string(&f32::NAN).unwrap(), "null");
        assert_eq!(to_string(&0.1f32).unwrap(), to_string(&(0.1f32 as f64)).unwrap());
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    /// The streaming path and the value-tree path give the same text,
    /// compact and pretty; returns the compact form.
    fn both_paths<T: Serialize + ?Sized>(x: &T) -> String {
        let compact = to_string(x).unwrap();
        let pretty = to_string_pretty(x).unwrap();
        for (text, is_pretty) in [(&compact, false), (&pretty, true)] {
            let mut w = JsonWriter::new(is_pretty);
            w.value(&x.to_value());
            assert_eq!(text, &w.into_string());
        }
        compact
    }

    #[test]
    fn empty_containers_stay_on_one_line_when_pretty() {
        assert_eq!(to_string_pretty(&Vec::<u64>::new()).unwrap(), "[]");
        assert_eq!(to_string_pretty(&Value::Map(Vec::new())).unwrap(), "{}");
        assert_eq!(to_string_pretty(&vec![Vec::<u64>::new()]).unwrap(), "[\n  []\n]");
        assert_eq!(
            to_string_pretty(&Value::Map(vec![("a".into(), Value::Map(Vec::new()))])).unwrap(),
            "{\n  \"a\": {}\n}"
        );
        both_paths(&vec![Vec::<u64>::new(), vec![1]]);
    }

    #[test]
    fn nesting_deeper_than_the_indent_slice() {
        // 50 levels indent the innermost item by 100 spaces, more than the
        // writer's 64-space slice holds.
        let mut v = Value::Int(7);
        for _ in 0..50 {
            v = Value::Seq(vec![v]);
        }
        let pretty = to_string_pretty(&v).unwrap();
        for (depth, line) in pretty.lines().take(51).enumerate() {
            assert_eq!(line.len() - line.trim_start().len(), 2 * depth, "line {depth}");
        }
        assert!(pretty.lines().any(|l| l == format!("{}7", " ".repeat(100))));
        let back: WrapperDe = from_str(&pretty).unwrap();
        assert_eq!(back.0, v);
        both_paths(&v);
    }

    #[test]
    fn integer_extremes_print_exactly() {
        assert_eq!(both_paths(&u64::MAX), "18446744073709551615");
        assert_eq!(both_paths(&i64::MIN), "-9223372036854775808");
        assert_eq!(both_paths(&i8::MIN), "-128");
        assert_eq!(both_paths(&0usize), "0");
        let wide = u64::MAX as i128 + 1;
        assert_eq!(both_paths(&Value::Int(wide)), "18446744073709551616");
        assert_eq!(both_paths(&Value::Int(-wide)), "-18446744073709551616");
        assert_eq!(both_paths(&Value::Int(i128::MIN)), i128::MIN.to_string());
    }

    #[test]
    fn escapes_are_exact_and_non_ascii_passes_through() {
        assert_eq!(both_paths("\u{1f}\"\\"), r#""\u001f\"\\""#);
        assert_eq!(both_paths("a\nb\rc\td\u{0}"), r#""a\nb\rc\td\u0000""#);
        assert_eq!(both_paths("é 😀 \u{7f}"), "\"é 😀 \u{7f}\"");
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        let back: String = from_str(&both_paths(&all_controls)).unwrap();
        assert_eq!(back, all_controls);
    }

    #[test]
    fn none_is_null() {
        assert_eq!(both_paths(&None::<u64>), "null");
        assert_eq!(both_paths(&Some(3u8)), "3");
        assert_eq!(both_paths(&vec![Some(1.5f64), None]), "[1.5,null]");
    }

    /// A sink that accepts `room` bytes, then fails every write.
    struct Failing {
        room: usize,
        writes: usize,
    }

    impl io::Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.room == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "reader went away"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_errors_are_returned_and_stop_output() {
        let big: Vec<u64> = (0..100_000).collect();
        let mut sink = Failing { room: 1000, writes: 0 };
        let err = to_writer_pretty(&mut sink, &big).unwrap_err();
        assert!(err.to_string().contains("reader went away"), "{err}");
        // One short write, one failed write, then nothing more is tried.
        assert_eq!(sink.writes, 2);
        let mut out = Vec::new();
        to_writer(&mut out, &big).unwrap();
        assert_eq!(out, to_vec(&big).unwrap());
    }

    #[test]
    fn parse_errors_have_positions() {
        assert!(from_str::<u64>("[1,").is_err());
        assert!(from_str::<u64>("1 2").is_err());
        assert!(from_str::<String>("\"abc").is_err());
    }
}
