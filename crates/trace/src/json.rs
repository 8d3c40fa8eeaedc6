//! A minimal JSON value for the machine-readable artifacts the workspace
//! emits (metric documents, `perf` results and `.trace.json` Chrome traces).
//!
//! Hand-rolled on purpose: the workspace carries no serialization dependency,
//! and the artifacts are small and write-only from Rust's side. Keys keep
//! insertion order, so rendered documents are deterministic and diffable.

/// A minimal JSON value with deterministic (insertion-ordered) rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A float, rendered with enough precision to round-trip metrics.
    Num(f64),
    /// An unsigned counter.
    Int(u64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered list.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as compact JSON.
    ///
    /// # Panics
    ///
    /// Panics on non-finite floats: the artifacts are metrics, and a NaN in
    /// one is a bug worth stopping on, not serializing.
    pub fn render(&self) -> String {
        match self {
            Json::Num(x) => {
                assert!(x.is_finite(), "non-finite metric in JSON artifact: {x}");
                // Plain Display round-trips f64 and never emits exponents for
                // the metric ranges these artifacts hold.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    format!("{:.1}", x)
                } else {
                    format!("{x}")
                }
            }
            Json::Int(n) => n.to_string(),
            Json::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", Json::Str(k.clone()).render(), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// Validates that `input` is one well-formed JSON document (RFC 8259 subset:
/// the escapes [`Json::render`] can emit, decimal numbers, no surrogate-pair
/// checking). Used by tests and tooling to check emitted artifacts without a
/// parser dependency.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    validate_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn validate_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                validate_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                skip_ws(bytes, pos);
                validate_value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?} at {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                validate_value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?} at {pos}")),
                }
            }
        }
        Some(b'"') => validate_string(bytes, pos),
        Some(b't') => expect_literal(bytes, pos, b"true"),
        Some(b'f') => expect_literal(bytes, pos, b"false"),
        Some(b'n') => expect_literal(bytes, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => validate_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at {pos}", want as char))
    }
}

fn expect_literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if bytes.len() >= *pos + lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at {pos}"))
    }
}

fn validate_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'"')?;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match bytes.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at {pos}")),
                            }
                        }
                    }
                    other => return Err(format!("bad escape {other:?} at {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("unescaped control byte at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn validate_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_from = *pos;
    while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == digits_from {
        return Err(format!("number without digits at {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_from = *pos;
        while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_from {
            return Err(format!("number with empty fraction at {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_from = *pos;
        while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_from {
            return Err(format!("number with empty exponent at {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_nested_values() {
        let v = Json::obj([
            ("count", Json::from(3u64)),
            ("ratio", Json::from(0.75)),
            ("whole", Json::from(2.0)),
            ("name", Json::from("p\"5\"0\n")),
            ("list", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"count":3,"ratio":0.75,"whole":2.0,"name":"p\"5\"0\n","list":[1,2]}"#
        );
    }

    #[test]
    #[should_panic(expected = "non-finite metric")]
    fn json_rejects_nan() {
        let _ = Json::Num(f64::NAN).render();
    }

    #[test]
    fn rendered_values_validate() {
        let v = Json::obj([
            ("s", Json::from("a\\b\"c\n\u{1}")),
            ("n", Json::Num(-1.25)),
            ("a", Json::Arr(vec![Json::Int(0)])),
            ("o", Json::obj([("empty", Json::Arr(vec![]))])),
        ]);
        validate_json(&v.render()).unwrap();
        validate_json("{}").unwrap();
        validate_json("[1,2.5,-3e4,\"x\",true,false,null]").unwrap();
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("1 2").is_err());
        assert!(validate_json("01a").is_err());
        assert!(validate_json("{\"a\":1}{}").is_err());
        assert!(validate_json("\"bad \\q escape\"").is_err());
    }
}
