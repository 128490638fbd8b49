//! JSON text: the writers for strings, numbers and [`Value`] trees, and a
//! recursive-descent parser.

use crate::value::{Map, Number, Value};
use crate::Error;
use std::fmt::{self, Write};

/// Appends a string with JSON escaping (quotes included). Runs of bytes
/// that need no escape are copied in one piece; every escaped byte is
/// ASCII, so each run ends on a character boundary.
pub fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xF)] as char);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends an integer in decimal.
pub(crate) fn write_int(out: &mut String, x: impl fmt::Display) {
    write!(out, "{x}").expect("writing to a String cannot fail");
}

/// Appends a float: Rust's shortest-round-trip formatting, so parsing the
/// output recovers the exact bit pattern. JSON has no Infinity/NaN
/// literals, so a non-finite float writes `null`, as serde_json does.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        write!(out, "{x}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Appends a [`Value`] tree as compact JSON.
pub(crate) fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(Number::U64(x)) => write_int(out, x),
        Value::Number(Number::I64(x)) => write_int(out, x),
        Value::Number(Number::F64(x)) => write_f64(out, *x),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// How deeply arrays and objects may nest in parsed text: upstream
/// serde_json's limit. The parser recurses once per level, so without a
/// bound a frame of a few thousand `[` overflows the reading thread's
/// stack and aborts the process.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`]. Trailing whitespace is allowed;
/// trailing garbage is an error, and so is nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(Error::msg(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(Error::msg("unexpected end of input")),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut m = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            m.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let code = u32::from_str_radix(chunk, 16)
            .map_err(|_| Error::msg(format!("invalid \\u escape at byte {}", self.pos)))?;
        self.pos = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash as one slice. Both are ASCII, so the run ends on a
            // character boundary of the input, and the whole string costs
            // one pass over its bytes.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\'))
                .ok_or_else(|| Error::msg("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            // A backslash: decode one escape.
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{08}'),
                Some(b'f') => out.push('\u{0C}'),
                Some(b'u') => {
                    self.pos += 1;
                    let hi = self.hex4()?;
                    let scalar = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: a second \uXXXX must follow.
                        if self.peek() == Some(b'\\') {
                            self.pos += 1;
                            self.expect(b'u')?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error::msg("unpaired surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            return Err(Error::msg("unpaired surrogate"));
                        }
                    } else {
                        hi
                    };
                    out.push(
                        char::from_u32(scalar)
                            .ok_or_else(|| Error::msg("invalid unicode escape"))?,
                    );
                    continue; // hex4 advanced past the escape
                }
                _ => return Err(Error::msg("invalid escape")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let num = if is_float {
            Number::F64(
                text.parse::<f64>()
                    .map_err(|_| Error::msg(format!("invalid number `{text}`")))?,
            )
        } else if let Some(stripped) = text.strip_prefix('-') {
            // Negative integer; fall back to f64 on i64 overflow.
            match stripped.parse::<i64>() {
                Ok(x) => Number::I64(-x),
                Err(_) => Number::F64(
                    text.parse::<f64>()
                        .map_err(|_| Error::msg(format!("invalid number `{text}`")))?,
                ),
            }
        } else {
            match text.parse::<u64>() {
                Ok(x) => Number::U64(x),
                Err(_) => Number::F64(
                    text.parse::<f64>()
                        .map_err(|_| Error::msg(format!("invalid number `{text}`")))?,
                ),
            }
        };
        Ok(Value::Number(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, -2, 3.5, "x\n", true, null], "b": {"c": 0.25}}"#).unwrap();
        let obj = v.as_object().unwrap();
        let a = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[2].as_f64(), Some(3.5));
        assert_eq!(a[3].as_str(), Some("x\n"));
        assert_eq!(
            obj.get("b")
                .unwrap()
                .as_object()
                .unwrap()
                .get("c")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
    }

    #[test]
    fn escapes_match_the_json_grammar() {
        let mut out = String::new();
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        write_escaped(&mut out, &all_controls);
        let mut want = String::from("\"");
        for b in 0u8..0x20 {
            want.push_str(&match b {
                b'\n' => "\\n".to_string(),
                b'\r' => "\\r".to_string(),
                b'\t' => "\\t".to_string(),
                0x08 => "\\b".to_string(),
                0x0C => "\\f".to_string(),
                b => format!("\\u{:04x}", b),
            });
        }
        want.push('"');
        assert_eq!(out, want);
        // Quote, backslash, DEL and multi-byte text around escapes: only
        // the first two are escaped.
        let mixed = "é\"😀\\\u{7f}x\u{1f}€";
        out.clear();
        write_escaped(&mut out, mixed);
        assert_eq!(out, "\"é\\\"😀\\\\\u{7f}x\\u001f€\"");
        assert_eq!(parse(&out).unwrap().as_str(), Some(mixed));
        out.clear();
        write_escaped(&mut out, "");
        assert_eq!(out, "\"\"");
    }

    #[test]
    fn writer_output_reparses() {
        let v = parse(r#"{"k":"quote \" backslash \\ tab \t","n":[1e-3,12345678901234567890]}"#)
            .unwrap();
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nulL").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(parse(&nest(MAX_DEPTH, open, close)).is_ok());
            let err = parse(&nest(MAX_DEPTH + 1, open, close)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper"), "{err}");
            // Far past the bound, and unterminated: refused without
            // recursing once per byte.
            assert!(parse(&open.repeat(100_000)).is_err());
        }
        // Depth counts open containers, not containers seen: siblings
        // at the bound parse.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1, "[", "]"); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
    }

    #[test]
    fn plain_runs_and_escapes_interleave() {
        let v = parse(r#""é\"😀\\xé😀 end""#).unwrap();
        assert_eq!(v.as_str(), Some("é\"😀\\xé😀 end"));
        assert_eq!(parse(r#""""#).unwrap().as_str(), Some(""));
        assert!(parse(r#""abc"#).is_err());
        assert!(parse(r#""abc\"#).is_err());
        // A high surrogate followed by anything but a low one is an
        // error, never an arithmetic overflow.
        assert!(parse(r#""\ud83dA""#).is_err());
        let high_then_ascii_escape = format!(r#""\ud83d\u{:04x}""#, 0x41);
        assert!(parse(&high_then_ascii_escape).is_err());
    }

    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        // 80k short strings in about 0.8 MB. A parser that re-scans the rest
        // of the input for every string character is quadratic here and
        // overshoots the bound by orders of magnitude; one pass over the
        // text takes milliseconds.
        let doc = format!("[{}]", vec![r#"{"key":"value-é"}"#; 40_000].join(","));
        let started = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        assert_eq!(v.as_array().map(<[Value]>::len), Some(40_000));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "parsing {} bytes took {:?}",
            doc.len(),
            started.elapsed()
        );
    }
}
