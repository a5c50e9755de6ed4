//! Minimal JSON value, writer and (for the registry test) parser; the
//! offline build has no serde.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// An object from `(key, value)` pairs, keys in the given order.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Value {
    /// Compact one-line rendering. Numbers print with every digit Rust's
    /// shortest round-trip formatting gives.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                assert!(n.is_finite(), "JSON cannot carry {n}");
                write!(out, "{n}").expect("write to String");
            }
            Value::Str(s) => write_str(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
pub mod parse {
    //! Recursive-descent parser, enough for `BENCHMARK.json` (no `\u`
    //! escapes, no exponents needed but accepted via `f64::from_str`).

    use super::Value;

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.ws();
            self.s.get(self.i).copied()
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek().ok_or("unexpected end")? {
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    if self.peek() == Some(b'}') {
                        self.i += 1;
                        return Ok(Value::Object(fields));
                    }
                    loop {
                        let k = self.string()?;
                        self.eat(b':')?;
                        fields.push((k, self.value()?));
                        if self.peek() == Some(b',') {
                            self.i += 1;
                        } else {
                            self.eat(b'}')?;
                            return Ok(Value::Object(fields));
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    if self.peek() == Some(b']') {
                        self.i += 1;
                        return Ok(Value::Array(items));
                    }
                    loop {
                        items.push(self.value()?);
                        if self.peek() == Some(b',') {
                            self.i += 1;
                        } else {
                            self.eat(b']')?;
                            return Ok(Value::Array(items));
                        }
                    }
                }
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.word("true", Value::Bool(true)),
                b'f' => self.word("false", Value::Bool(false)),
                b'n' => self.word("null", Value::Null),
                _ => {
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|c| b"+-.eE0123456789".contains(c))
                    {
                        self.i += 1;
                    }
                    let text =
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                    text.parse()
                        .map(Value::Num)
                        .map_err(|_| format!("bad number at byte {start}"))
                }
            }
        }

        fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
            if self.s[self.i..].starts_with(w.as_bytes()) {
                self.i += w.len();
                Ok(v)
            } else {
                Err(format!("expected {w} at byte {}", self.i))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = Vec::new();
            loop {
                match *self.s.get(self.i).ok_or("unterminated string")? {
                    b'"' => {
                        self.i += 1;
                        return String::from_utf8(out).map_err(|e| e.to_string());
                    }
                    b'\\' => {
                        let c = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                        out.push(match c {
                            b'n' => b'\n',
                            b't' => b'\t',
                            b'"' | b'\\' | b'/' => c,
                            _ => return Err(format!("unsupported escape at byte {}", self.i)),
                        });
                        self.i += 2;
                    }
                    c => {
                        out.push(c);
                        self.i += 1;
                    }
                }
            }
        }
    }
}
