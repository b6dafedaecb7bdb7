//! Offline drop-in subset of `serde_json`.
//!
//! Renders and parses the serde shim's [`Value`] tree as JSON. Floats are
//! formatted with Rust's shortest-roundtrip formatter and parsed with the
//! standard correctly-rounded parser, so finite `f64` round-trips are
//! bit-exact (the behavior the real crate's `float_roundtrip` feature
//! guarantees).

use serde::{Deserialize, Serialize, Value};

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` as human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    T::from_value(&value).map_err(Error::new)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        // Real serde_json refuses non-finite floats; emitting null keeps the
        // output valid JSON, and deserializing null into f64 fails loudly.
        out.push_str("null");
        return;
    }
    // `{:?}` is Rust's shortest-roundtrip formatting and always includes a
    // decimal point or exponent, so floats never re-parse as integers.
    out.push_str(&format!("{f:?}"));
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting the parser accepts, as in the real
/// crate: the parser recurses once per level, so without a bound a body
/// of a million `[` would overflow the stack instead of failing.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
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
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        let nests = matches!(self.peek(), Some(b'[' | b'{'));
        if !nests {
            return self.parse_any();
        }
        if self.depth == RECURSION_LIMIT {
            return Err(Error::new(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = self.parse_any();
        self.depth -= 1;
        value
    }

    fn parse_any(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: combine with the low half.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if !self.eat_keyword("\\u") {
                                    return Err(Error::new("lone high surrogate"));
                                }
                                let hex2 = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| Error::new("truncated \\u escape"))?;
                                let low = u32::from_str_radix(
                                    std::str::from_utf8(hex2)
                                        .map_err(|_| Error::new("invalid \\u escape"))?,
                                    16,
                                )
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                                self.pos += 4;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error::new("high surrogate without a low one"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(ch)
                                    .ok_or_else(|| Error::new("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        // Like real serde_json, a literal past the f64 range is an error,
        // not an infinity that would re-serialize as null.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            Ok(_) => Err(Error::new(format!("number out of range `{text}`"))),
            Err(_) => Err(Error::new(format!("invalid number `{text}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_past_the_recursion_limit_is_an_error() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nest(RECURSION_LIMIT)).is_ok());
        let err = from_str::<Value>(&nest(RECURSION_LIMIT + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Deep enough to overflow any thread's stack if it recursed.
        assert!(from_str::<Value>(&"[{\"a\":".repeat(500_000)).is_err());
    }

    #[test]
    fn a_number_past_the_f64_range_is_an_error() {
        assert_eq!(from_str::<f64>("1e308").unwrap(), 1e308);
        assert_eq!(from_str::<f64>("99999999999999999999").unwrap(), 1e20);
        for text in ["1e400", "-1e400", &"9".repeat(400)] {
            let err = from_str::<f64>(text).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{text}: {err}");
        }
    }

    #[test]
    fn a_high_surrogate_needs_a_low_one() {
        assert!(from_str::<String>("\"\\ud800\\u0041\"").is_err());
        assert_eq!(
            from_str::<String>("\"\\ud83d\\ude00\"").unwrap(),
            "\u{1F600}"
        );
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        for &f in &[
            0.1f64,
            1.0 / 3.0,
            6.02214076e23,
            -0.0,
            1e-300,
            123_456_789.123_456,
        ] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{f} -> {json} -> {back}");
        }
    }

    #[test]
    fn nested_containers_roundtrip() {
        let v: Vec<(u32, Vec<Option<f64>>)> = vec![(1, vec![Some(2.5), None]), (3, vec![])];
        let json = to_string(&v).unwrap();
        let back: Vec<(u32, Vec<Option<f64>>)> = from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "line\n\"quoted\"\t\\slash\u{1F600}".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1u32, 2], vec![3]];
        let json = to_string_pretty(&v).unwrap();
        assert!(json.contains('\n'));
        let back: Vec<Vec<u32>> = from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<u32>("[1,2").is_err());
        assert!(from_str::<u32>("\"no\"").is_err());
        assert!(from_str::<u32>("1 garbage").is_err());
    }
}
