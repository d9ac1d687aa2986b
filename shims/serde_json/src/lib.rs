//! Offline shim for `serde_json`: renders the shim serde [`Value`] model as
//! JSON text and parses JSON text back into it. Only the surface this
//! workspace consumes is implemented (`to_string`, `to_string_pretty`,
//! [`from_str`] to a [`Value`]). See `shims/README.md`.

pub use serde::Value;
use std::fmt;

/// Serialization / parse error. Serialization never fails; parsing reports
/// the byte offset and a short description.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn parse(offset: usize, message: impl Into<String>) -> Self {
        Error {
            message: format!("JSON parse error at byte {offset}: {}", message.into()),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Parses a JSON document into the shim [`Value`] model.
///
/// Unlike the real crate this is not generic over `Deserialize`: callers
/// read the [`Value`] with `serde::Deserialize::from_json` or its
/// accessors.
///
/// # Errors
///
/// Returns an [`Error`] describing the first malformed byte.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::parse(pos, "trailing characters after the document"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), Error> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::parse(*pos, format!("expected `{}`", byte as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::parse(*pos, "unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::parse(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(Error::parse(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(Error::parse(
            *pos,
            format!("unexpected byte `{}`", b as char),
        )),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(Error::parse(*pos, format!("expected `{literal}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| Error::parse(start, "invalid number"))?;
    if !float {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::Uint(u));
        }
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Value::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| Error::parse(start, format!("malformed number `{text}`")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::parse(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let high = parse_hex4(bytes, pos)?;
                        let code = if (0xd800..0xdc00).contains(&high) {
                            // Surrogate pair: the low half must follow.
                            *pos += 1;
                            expect(bytes, pos, b'\\')?;
                            if bytes.get(*pos) != Some(&b'u') {
                                return Err(Error::parse(*pos, "expected low surrogate"));
                            }
                            let low = parse_hex4(bytes, pos)?;
                            0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                        } else {
                            high
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::parse(*pos, "invalid unicode escape"))?,
                        );
                    }
                    _ => return Err(Error::parse(*pos, "invalid escape sequence")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (the input is a &str, so the
                // boundary arithmetic is safe).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| Error::parse(*pos, "invalid UTF-8"))?;
                let c = rest.chars().next().expect("non-empty remainder");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Parses the `XXXX` of a `\uXXXX` escape; `pos` is on the `u` on entry and
/// on the last hex digit on exit.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, Error> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err(Error::parse(*pos, "truncated unicode escape"));
    }
    let text = std::str::from_utf8(&bytes[start..end])
        .map_err(|_| Error::parse(start, "invalid unicode escape"))?;
    let code =
        u32::from_str_radix(text, 16).map_err(|_| Error::parse(start, "invalid unicode escape"))?;
    *pos = end - 1;
    Ok(code)
}

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Never fails; the `Result` mirrors the real crate's signature.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json(), None, 0, &mut out);
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Never fails; the `Result` mirrors the real crate's signature.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json(), Some(2), 0, &mut out);
    Ok(out)
}

fn write_value(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Uint(u) => out.push_str(&u.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // Match serde_json: always carry a decimal point or exponent.
                let s = format!("{x}");
                out.push_str(&s);
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
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
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_rendering() {
        let v = Value::Object(vec![
            ("a".into(), Value::Uint(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".into(), Value::Float(1.5)),
            ("s".into(), Value::Str("x\"y".into())),
        ]);
        struct W(Value);
        impl serde::Serialize for W {
            fn to_json(&self) -> Value {
                self.0.clone()
            }
        }
        assert_eq!(
            to_string(&W(v.clone())).unwrap(),
            r#"{"a":1,"b":[true,null],"c":1.5,"s":"x\"y"}"#
        );
        let pretty = to_string_pretty(&W(v)).unwrap();
        assert!(pretty.contains("\n  \"a\": 1"));
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        struct W;
        impl serde::Serialize for W {
            fn to_json(&self) -> Value {
                Value::Float(3.0)
            }
        }
        assert_eq!(to_string(&W).unwrap(), "3.0");
    }

    #[test]
    fn parses_every_value_kind() {
        let v = from_str(r#" {"a": 1, "b": [true, null, -2, 1.5e3], "s": "x\"\né", "o": {}} "#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert!(b[1].is_null());
        assert_eq!(b[2].as_i64(), Some(-2));
        assert_eq!(b[3].as_f64(), Some(1500.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"\né"));
        assert_eq!(v.get("o").unwrap().as_object(), Some(&[][..]));
    }

    #[test]
    fn parse_round_trips_serialized_output() {
        let v = Value::Object(vec![
            ("neg".into(), Value::Int(-7)),
            ("big".into(), Value::Uint(u64::MAX)),
            ("f".into(), Value::Float(0.125)),
            ("t".into(), Value::Str("tab\there".into())),
            (
                "list".into(),
                Value::Array(vec![Value::Null, Value::Bool(false)]),
            ),
        ]);
        struct W(Value);
        impl serde::Serialize for W {
            fn to_json(&self) -> Value {
                self.0.clone()
            }
        }
        let compact = to_string(&W(v.clone())).unwrap();
        assert_eq!(from_str(&compact).unwrap(), v);
        let pretty = to_string_pretty(&W(v.clone())).unwrap();
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
        ] {
            assert!(from_str(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        // Raw UTF-8 and the escaped surrogate pair decode to the same char.
        assert_eq!(from_str(r#""😀""#).unwrap(), Value::Str("😀".to_string()));
        assert_eq!(
            from_str("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".to_string())
        );
    }
}
