//! A strict recursive-descent JSON parser.
//!
//! Parsing is linear in the input length, and nesting is capped at
//! [`MAX_DEPTH`] so hostile input yields a [`ParseError`] rather than
//! exhausting the stack.

use crate::value::{Map, Value};
use std::error::Error;
use std::fmt;

/// A parse failure, with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for ParseError {}

/// Deepest array/object nesting [`from_str`] accepts. Each level is one
/// parser stack frame, so the cap bounds stack use on any thread.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Trailing non-whitespace is an error,
/// and so is nesting deeper than [`MAX_DEPTH`].
pub fn from_str(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| ParseError { offset: start, message: format!("bad number {text:?}") })
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.parse_unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape in
                    // one slice. Both delimiters are ASCII, so the run ends
                    // on a character boundary of the (valid UTF-8) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (the `\u` itself is consumed).
    /// Surrogate pairs are combined when both halves are present.
    fn parse_unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.parse_hex4()?;
        // High surrogate: require the matching low half.
        if (0xD800..0xDC00).contains(&first) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.parse_hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let combined =
                        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(combined).ok_or_else(|| self.error("bad surrogate"));
                }
            }
            return Err(self.error("unpaired surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.error("bad unicode escape"))
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("bad unicode escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("bad unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    /// Enters one array/object level, failing past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.descend()?;
        let value = self.parse_array_items();
        self.depth -= 1;
        value
    }

    fn parse_array_items(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
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
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, ParseError> {
        self.descend()?;
        let value = self.parse_object_members();
        self.depth -= 1;
        value
    }

    fn parse_object_members(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn parses_every_value_kind() {
        let v = from_str(r#"{"a": [1, -2.5, 1e3], "b": null, "c": true, "d": "x\ny"}"#).unwrap();
        assert_eq!(v["a"][0].as_f64(), Some(1.0));
        assert_eq!(v["a"][1].as_f64(), Some(-2.5));
        assert_eq!(v["a"][2].as_f64(), Some(1000.0));
        assert!(v["b"].is_null());
        assert_eq!(v["c"].as_bool(), Some(true));
        assert_eq!(v["d"].as_str(), Some("x\ny"));
    }

    #[test]
    fn roundtrips_construction_and_text() {
        let v = json!({
            "name": "swizzor",
            "sizes": [1, 2, 3],
            "nested": { "ratio": 0.64, "flag": false },
        });
        assert_eq!(from_str(&v.to_string()).unwrap(), v);
        assert_eq!(from_str(&crate::to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn roundtrips_f32_weights_exactly() {
        // The checkpoint format serializes f32 values with Rust's shortest
        // roundtrip formatting and reads them back through f64.
        let values = [0.1f32, -1e-7, 3.4e38, 1.0 / 3.0, f32::MIN_POSITIVE];
        for v in values {
            let text = format!("{v}");
            let parsed = from_str(&text).unwrap().as_f64().unwrap() as f32;
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated", "{a: 1}"] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(from_str(r#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(from_str(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert!(from_str(r#""\ud83d""#).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 16 MiB — the largest body `/v1/predict` admits — mixing ASCII,
        // multi-byte characters and escapes. A per-character rescan of
        // the rest of the input would take hours here.
        let chunk = r"mov eax, ebx ; é😀\n";
        let reps = (16 << 20) / chunk.len();
        let doc = format!("{{\"asm\": \"{}\"}}", chunk.repeat(reps));
        let v = from_str(&doc).unwrap();
        let expected = "mov eax, ebx ; é😀\n".repeat(reps);
        assert_eq!(v["asm"].as_str().map(str::len), Some(expected.len()));
        assert_eq!(v["asm"].as_str(), Some(expected.as_str()));
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        let err = from_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Objects count too, and a hostile depth fails fast without
        // exhausting the stack.
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(from_str(&objects).unwrap_err().message.contains("nesting"));
        assert!(from_str(&"[".repeat(200_000)).unwrap_err().message.contains("nesting"));
        // The counter unwinds: siblings at the limit stay legal.
        let siblings = format!("[{},{}]", nested(MAX_DEPTH - 1), nested(MAX_DEPTH - 1));
        assert!(from_str(&siblings).is_ok());
    }

    #[test]
    fn error_reports_offset() {
        let err = from_str("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
