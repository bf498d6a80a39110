//! Offline stand-in for `serde`.
//!
//! This workspace must build without network access to crates.io, so the
//! real serde cannot be fetched. This shim keeps the same import surface
//! (`use serde::{Serialize, Deserialize}` plus the derive macros) but uses a
//! much simpler model. Deserialization rebuilds values from a [`Value`]
//! tree that `serde_json` (also shimmed in `compat/`) parses. Serialization
//! streams: [`Serialize::write_json`] writes JSON text straight from the
//! typed value into a [`JsonWriter`], so no tree is built on the way out
//! ([`Serialize::to_value`] still lowers to a [`Value`] when a caller wants
//! one). The encoding is *canonical*: map entries keep field declaration
//! order and floats format via Rust's shortest-roundtrip `{:?}`, so equal
//! values always produce byte-identical JSON. The experiment engine's
//! content-addressed result cache keys on exactly that property.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;
use std::io::{self, Write};

/// A JSON-shaped value tree: the data model every `Serialize` type lowers
/// into and every `Deserialize` type is rebuilt from.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All integers, signed or unsigned (i128 covers the full u64 range).
    Int(i128),
    Float(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Declaration-ordered key/value pairs (order is part of the canonical
    /// encoding; no sorting, no deduplication).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Look up a map entry by key.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::custom(format!("missing field `{name}`"))),
            other => Error::expected("a map", other),
        }
    }

    /// View as a sequence.
    pub fn seq(&self) -> Result<&[Value], Error> {
        match self {
            Value::Seq(items) => Ok(items),
            other => Error::expected("a sequence", other),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a bool",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Str(_) => "a string",
            Value::Seq(_) => "a sequence",
            Value::Map(_) => "a map",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    pub fn custom(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }

    fn expected<T>(what: &str, got: &Value) -> Result<T, Error> {
        Err(Error(format!("expected {what}, found {}", got.kind())))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Pretty output indents two spaces per level, cut from this slice;
/// deeper nesting repeats it.
const SPACES: &[u8; 64] = b"                                                                ";

/// A writer with a sink hands its buffer over once it holds this much.
const BUF_CAP: usize = 64 * 1024;

/// The JSON formatter: every serialized value is written through one.
///
/// It places commas, newlines and two-space indentation itself, so a
/// [`Serialize`] impl only opens and closes containers and names its keys.
/// Text accumulates in a buffer; a writer made with
/// [`JsonWriter::with_sink`] hands each 64 KiB to its [`io::Write`] sink,
/// so output of any size streams in bounded memory. The first sink error
/// is kept, later output is dropped, and [`JsonWriter::finish`] returns it.
pub struct JsonWriter<'a> {
    buf: Vec<u8>,
    sink: Option<&'a mut dyn io::Write>,
    error: Option<io::Error>,
    pretty: bool,
    depth: usize,
    /// Whether the innermost open container already holds an item.
    nonempty: bool,
}

impl JsonWriter<'static> {
    /// An in-memory writer; take the text with [`JsonWriter::into_string`].
    pub fn new(pretty: bool) -> Self {
        JsonWriter { buf: Vec::new(), sink: None, error: None, pretty, depth: 0, nonempty: false }
    }
}

impl<'a> JsonWriter<'a> {
    /// A writer that streams into `sink` in 64 KiB writes.
    pub fn with_sink(sink: &'a mut dyn io::Write, pretty: bool) -> Self {
        JsonWriter {
            buf: Vec::with_capacity(BUF_CAP),
            sink: Some(sink),
            error: None,
            pretty,
            depth: 0,
            nonempty: false,
        }
    }

    /// The text of an in-memory writer.
    pub fn into_string(self) -> String {
        String::from_utf8(self.buf).expect("JsonWriter writes only UTF-8")
    }

    /// Hand the rest of the buffer to the sink; the first write error, if
    /// any. The sink itself is not flushed.
    pub fn finish(mut self) -> io::Result<()> {
        self.spill();
        self.error.map_or(Ok(()), Err)
    }

    fn spill(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            if self.error.is_none() {
                self.error = sink.write_all(&self.buf).err();
            }
            self.buf.clear();
        }
    }

    fn newline_indent(&mut self) {
        self.buf.push(b'\n');
        let mut n = 2 * self.depth;
        while n > 0 {
            let k = n.min(SPACES.len());
            self.buf.extend_from_slice(&SPACES[..k]);
            n -= k;
        }
    }

    fn open(&mut self, bracket: u8) {
        self.buf.push(bracket);
        self.depth += 1;
        self.nonempty = false;
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if self.nonempty && self.pretty {
            self.newline_indent();
        }
        self.buf.push(bracket);
        // The container just closed is an item of the one around it.
        self.nonempty = true;
    }

    pub fn begin_seq(&mut self) {
        self.open(b'[');
    }

    pub fn end_seq(&mut self) {
        self.close(b']');
    }

    pub fn begin_map(&mut self) {
        self.open(b'{');
    }

    pub fn end_map(&mut self) {
        self.close(b'}');
    }

    /// Start the next sequence element (or, via [`JsonWriter::key`], map
    /// entry): a comma after the first, then in pretty form a newline and
    /// the indentation. Write the element's value next.
    pub fn element(&mut self) {
        if self.buf.len() >= BUF_CAP {
            self.spill();
        }
        if self.nonempty {
            self.buf.push(b',');
        }
        self.nonempty = true;
        if self.pretty {
            self.newline_indent();
        }
    }

    /// Start the next map entry with its key; write its value next.
    pub fn key(&mut self, name: &str) {
        self.element();
        self.str(name);
        self.buf.push(b':');
        if self.pretty {
            self.buf.push(b' ');
        }
    }

    pub fn null(&mut self) {
        self.buf.extend_from_slice(b"null");
    }

    pub fn bool(&mut self, b: bool) {
        self.buf.extend_from_slice(if b { b"true" } else { b"false" });
    }

    pub fn u64(&mut self, v: u64) {
        self.digits(false, v);
    }

    pub fn i64(&mut self, v: i64) {
        self.digits(v < 0, v.unsigned_abs());
    }

    pub fn i128(&mut self, v: i128) {
        match u64::try_from(v.unsigned_abs()) {
            Ok(magnitude) => self.digits(v < 0, magnitude),
            Err(_) => write!(self.buf, "{v}").expect("writing to a Vec cannot fail"),
        }
    }

    fn digits(&mut self, negative: bool, mut v: u64) {
        let mut tmp = [0u8; 21];
        let mut i = tmp.len();
        loop {
            i -= 1;
            tmp[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        if negative {
            i -= 1;
            tmp[i] = b'-';
        }
        self.buf.extend_from_slice(&tmp[i..]);
    }

    /// Shortest round-trip `{:?}` form; JSON has no non-finite numbers, so
    /// NaN and the infinities are written as `null`.
    pub fn f64(&mut self, x: f64) {
        if x.is_finite() {
            write!(self.buf, "{x:?}").expect("writing to a Vec cannot fail");
        } else {
            self.null();
        }
    }

    /// A quoted string: `"`, `\` and control characters are escaped,
    /// everything else (non-ASCII too) is copied as-is.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = s.as_bytes();
        self.buf.push(b'"');
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let unicode;
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => {
                    unicode = [
                        b'\\',
                        b'u',
                        b'0',
                        b'0',
                        HEX[usize::from(b >> 4)],
                        HEX[usize::from(b & 15)],
                    ];
                    &unicode
                }
                _ => continue,
            };
            self.buf.extend_from_slice(&bytes[start..i]);
            self.buf.extend_from_slice(escape);
            start = i + 1;
        }
        self.buf.extend_from_slice(&bytes[start..]);
        self.buf.push(b'"');
    }

    /// Write a [`Value`] tree.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(i) => self.i128(*i),
            Value::Float(x) => self.f64(*x),
            Value::Str(s) => self.str(s),
            Value::Seq(items) => {
                self.begin_seq();
                for item in items {
                    self.element();
                    self.value(item);
                }
                self.end_seq();
            }
            Value::Map(entries) => {
                self.begin_map();
                for (k, item) in entries {
                    self.key(k);
                    self.value(item);
                }
                self.end_map();
            }
        }
    }
}

/// Lower `self` into the [`Value`] data model, or write it as JSON.
pub trait Serialize {
    fn to_value(&self) -> Value;

    /// Write `self` as JSON. The default writes [`Serialize::to_value`];
    /// the derive and the impls in this crate write directly, with no
    /// tree. Both must give the same text.
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.value(&self.to_value());
    }
}

/// Rebuild `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w);
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.value(self);
    }
}

fn write_seq<'x, T: Serialize + 'x>(
    w: &mut JsonWriter<'_>,
    items: impl IntoIterator<Item = &'x T>,
) {
    w.begin_seq();
    for item in items {
        w.element();
        item.write_json(w);
    }
    w.end_seq();
}

macro_rules! impl_int {
    // `$wide` is both the writer method and the type it takes.
    ($($t:ty => $wide:ident),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
            fn write_json(&self, w: &mut JsonWriter<'_>) {
                w.$wide(*self as $wide);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        Error::custom(format!(
                            "integer {i} out of range for {}", stringify!($t)
                        ))
                    }),
                    other => Error::expected("an integer", other),
                }
            }
        }
    )*};
}

impl_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
            fn write_json(&self, w: &mut JsonWriter<'_>) {
                w.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(x) => Ok(*x as $t),
                    // JSON has one number type: accept integer tokens too.
                    Value::Int(i) => Ok(*i as $t),
                    // Non-finite floats round-trip through JSON null.
                    Value::Null => Ok(<$t>::NAN),
                    other => Error::expected("a number", other),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Error::expected("a bool", other),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Error::expected("a string", other),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

/// `&'static str` deserialization leaks the parsed string. Only used for
/// static-table types (e.g. benchmark profiles) in tests; fine for a shim.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Error::expected("a string", other),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        write_seq(w, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.seq()?.iter().map(Deserialize::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        write_seq(w, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        write_seq(w, self);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v.seq()?;
        if items.len() != N {
            return Err(Error::custom(format!(
                "expected an array of {N} elements, found {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(Deserialize::from_value).collect::<Result<_, _>>()?;
        parsed.try_into().map_err(|_| Error::custom("array length changed during conversion"))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Some(x) => x.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $idx:tt),+) => $n:expr;)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
            fn write_json(&self, w: &mut JsonWriter<'_>) {
                w.begin_seq();
                $(w.element(); self.$idx.write_json(w);)+
                w.end_seq();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.seq()?;
                if items.len() != $n {
                    return Err(Error::custom(format!(
                        "expected a tuple of {} elements, found {}", $n, items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0) => 1;
    (A: 0, B: 1) => 2;
    (A: 0, B: 1, C: 2) => 3;
    (A: 0, B: 1, C: 2, D: 3) => 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_field_lookup() {
        let v = Value::Map(vec![("a".into(), Value::Int(1))]);
        assert_eq!(v.field("a").unwrap(), &Value::Int(1));
        assert!(v.field("b").is_err());
    }

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&0.25f64.to_value()).unwrap(), 0.25);
        assert_eq!(f64::from_value(&Value::Int(3)).unwrap(), 3.0);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
        assert!(u8::from_value(&Value::Int(300)).is_err());
    }

    #[test]
    fn compound_roundtrips() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_value(&v.to_value()).unwrap(), v);
        let a = [0.5f64, 1.5];
        assert_eq!(<[f64; 2]>::from_value(&a.to_value()).unwrap(), a);
        let t = (1u64, 2.5f64, 3u64);
        assert_eq!(<(u64, f64, u64)>::from_value(&t.to_value()).unwrap(), t);
        let o: Option<u64> = None;
        assert_eq!(Option::<u64>::from_value(&o.to_value()).unwrap(), None);
    }

    #[test]
    fn nonfinite_floats_roundtrip_via_null() {
        let v = f64::NAN.to_value();
        // The JSON writer maps non-finite to null; Deserialize accepts it.
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
        assert!(matches!(v, Value::Float(_)));
    }
}
