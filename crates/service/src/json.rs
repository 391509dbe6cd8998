//! A minimal flat-JSON-object reader and string escaper for the service
//! wire protocol — serde-free, like the rest of the workspace (the trace
//! layer's JSONL writer/parser set the precedent).
//!
//! The protocol only ever exchanges *flat* objects whose values are
//! strings, integers, or booleans, so that is all this module accepts.
//! Nested objects/arrays are a parse error, not a silent skip.

/// A scalar field value in a protocol object.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number, restricted to unsigned integers (every numeric
    /// protocol field — ids, budgets, millisecond allowances — is one).
    UInt(u64),
    /// A JSON boolean.
    Bool(bool),
}

impl Scalar {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean content, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"k": v, ...}`) into its fields, in
/// source order. Returns `Err` with a short human-readable reason on
/// anything that is not a flat object of string/uint/bool scalars.
pub fn parse_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let mut p = JsonScanner {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.scalar()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing content after object".to_owned());
    }
    Ok(fields)
}

/// Looks a field up by name in a parsed object.
pub fn field<'a>(fields: &'a [(String, Scalar)], name: &str) -> Option<&'a Scalar> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Escapes `s` for embedding in a JSON string literal (quotes, backslash,
/// and control characters; everything else passes through verbatim).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A cursor over one JSON line.
struct JsonScanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonScanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both are ASCII, so the run ends on a char boundary of `text`.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.next() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => return Ok(out),
                // The run stopped at a backslash: decode its escape.
                Some(_) => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = match self.hex4()? {
                            // High surrogate: standard encoders (e.g.
                            // Python's json.dumps with ensure_ascii) emit
                            // every non-BMP character as a \u pair, so the
                            // low half must follow immediately.
                            hi @ 0xD800..=0xDBFF => {
                                self.expect(b'\\')
                                    .and_then(|()| self.expect(b'u'))
                                    .map_err(|_| "high surrogate not followed by \\u escape")?;
                                match self.hex4()? {
                                    lo @ 0xDC00..=0xDFFF => {
                                        0x1_0000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                    }
                                    _ => {
                                        return Err("high surrogate not followed by low \
                                                     surrogate"
                                            .to_owned())
                                    }
                                }
                            }
                            0xDC00..=0xDFFF => return Err("lone low surrogate".to_owned()),
                            code => code,
                        };
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') => {
                self.literal("true")?;
                Ok(Scalar::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Scalar::Bool(false))
            }
            Some(b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
                text.parse::<u64>()
                    .map(Scalar::UInt)
                    .map_err(|e| format!("bad integer {text:?}: {e}"))
            }
            Some(b'{') | Some(b'[') => Err("nested values are not part of the protocol".to_owned()),
            other => Err(format!("expected a scalar, got {other:?}")),
        }
    }

    /// Four hex digits of a `\u` escape (the `\u` itself already consumed).
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.next().ok_or("truncated \\u escape")?;
            code = code * 16 + (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
        }
        Ok(code)
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected literal {word}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let fields = parse_object(
            r#"{"id": 7, "analysis": "cfa.cps", "program": "(f \"x\")", "warm": true}"#,
        )
        .unwrap();
        assert_eq!(field(&fields, "id").unwrap().as_u64(), Some(7));
        assert_eq!(
            field(&fields, "analysis").unwrap().as_str(),
            Some("cfa.cps")
        );
        assert_eq!(
            field(&fields, "program").unwrap().as_str(),
            Some("(f \"x\")")
        );
        assert_eq!(field(&fields, "warm").unwrap().as_bool(), Some(true));
        assert!(field(&fields, "missing").is_none());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line\n\"quoted\" \\ tab\t λ";
        let line = format!(r#"{{"s": "{}"}}"#, escape(nasty));
        let fields = parse_object(&line).unwrap();
        assert_eq!(field(&fields, "s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        // What Python's json.dumps (default ensure_ascii=True) emits for a
        // non-BMP character: a UTF-16 surrogate pair of \u escapes.
        let fields = parse_object("{\"s\": \"\\ud83d\\ude00!\"}").unwrap();
        assert_eq!(field(&fields, "s").unwrap().as_str(), Some("\u{1F600}!"));
        // BMP escapes still decode directly.
        let fields = parse_object("{\"s\": \"\\u03bb\"}").unwrap();
        assert_eq!(field(&fields, "s").unwrap().as_str(), Some("λ"));
        // Lone or malformed surrogates are invalid JSON text.
        assert!(parse_object(r#"{"s": "\ud83d"}"#).is_err());
        assert!(parse_object(r#"{"s": "\ud83d oops"}"#).is_err());
        assert!(parse_object(r#"{"s": "\ud83dA"}"#).is_err());
        assert!(parse_object(r#"{"s": "\ude00"}"#).is_err());
    }

    /// `parse_object`'s exact output, `Ok` or `Err`, over string escapes,
    /// `\u` pairs, lone surrogates, raw control bytes, multi-byte UTF-8
    /// and unterminated strings. The run-copying string reader must agree
    /// with the byte-at-a-time reader it replaced on every line.
    #[test]
    fn string_decoding_is_pinned() {
        let ok = |fields: &[(&str, Scalar)]| -> Result<Vec<(String, Scalar)>, String> {
            Ok(fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect())
        };
        let s = |v: &str| Scalar::Str(v.to_owned());
        let err = |e: &str| -> Result<Vec<(String, Scalar)>, String> { Err(e.to_owned()) };
        let cases = [
            (
                r#"{"s": "a\"b\\c\/d\ne\rf\tg"}"#,
                ok(&[("s", s("a\"b\\c/d\ne\rf\tg"))]),
            ),
            (
                r#"{"s": "", "t": "plain"}"#,
                ok(&[("s", s("")), ("t", s("plain"))]),
            ),
            (r#"{"key": "Aλ€\u0000"}"#, ok(&[("key", s("Aλ€\0"))])),
            (r#"{"s": "x😀y😀"}"#, ok(&[("s", s("x😀y😀"))])),
            (
                r#"{"s": "\u0041\u03bb\uD83D\uDE00!"}"#,
                ok(&[("s", s("Aλ😀!"))]),
            ),
            (r#"{"s": "\udbff\udfff"}"#, ok(&[("s", s("\u{10ffff}"))])),
            (
                r#"{"s": "\ud83d"}"#,
                err("high surrogate not followed by \\u escape"),
            ),
            (
                r#"{"s": "\ud83dA"}"#,
                err("high surrogate not followed by \\u escape"),
            ),
            (
                r#"{"s": "\ud83dx"}"#,
                err("high surrogate not followed by \\u escape"),
            ),
            (
                r#"{"s": "\ud83d\"}"#,
                err("high surrogate not followed by \\u escape"),
            ),
            (
                r#"{"s": "\ud83d\u0041"}"#,
                err("high surrogate not followed by low surrogate"),
            ),
            (r#"{"s": "\ude00x"}"#, err("lone low surrogate")),
            (r#"{"s": "\u12"}"#, err("bad \\u escape digit")),
            (r#"{"s": "\u00zz"}"#, err("bad \\u escape digit")),
            (r#"{"s": "a\u"}"#, err("bad \\u escape digit")),
            (r#"{"s": "\q"}"#, err("bad escape Some(113)")),
            (r#"{"s": "\"#, err("bad escape None")),
            (
                "{\"s\": \"a\tb\u{1}c\u{7f}d\u{1f}\"}",
                ok(&[("s", s("a\tb\u{1}c\u{7f}d\u{1f}"))]),
            ),
            ("{\"s\u{2}\": \"\u{0}\"}", ok(&[("s\u{2}", s("\0"))])),
            (
                r#"{"λ": "€😀ü", "n": 7}"#,
                ok(&[("λ", s("€😀ü")), ("n", Scalar::UInt(7))]),
            ),
            (r#"{"s": "abc"#, err("unterminated string")),
            (r#"{"s": "abc\""#, err("unterminated string")),
            (r#"{"s": "abc\\"#, err("unterminated string")),
            (r#"{"s": "multi€"#, err("unterminated string")),
            (
                r#"{"a": "x\\", "b": "\\y\\\\"}"#,
                ok(&[("a", s("x\\")), ("b", s("\\y\\\\"))]),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse_object(line), want, "{line:?}");
        }
    }

    #[test]
    fn rejects_nested_and_trailing_garbage() {
        assert!(parse_object(r#"{"a": {"b": 1}}"#).is_err());
        assert!(parse_object(r#"{"a": [1]}"#).is_err());
        assert!(parse_object(r#"{"a": 1} extra"#).is_err());
        assert!(parse_object(r#"{"a": }"#).is_err());
        assert!(parse_object("").is_err());
    }

    #[test]
    fn empty_object_is_ok() {
        assert_eq!(parse_object("{}").unwrap().len(), 0);
        assert_eq!(parse_object(" { } ").unwrap().len(), 0);
    }
}
