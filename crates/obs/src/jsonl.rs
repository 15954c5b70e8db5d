//! JSONL wire format for traces: one event per line, stable field
//! order, hand-rolled so the byte layout is part of the contract.
//!
//! Schema (field order is fixed):
//!
//! ```text
//! {"shard":N,"seq":N,"kind":"span_enter|span_exit|point","path":"...","wall_us":N,"attrs":{"k":"v",...}}
//! ```
//!
//! The encoder emits exactly this shape; [`parse_line`] accepts the
//! canonical form plus insignificant whitespace and any key order, but
//! rejects unknown keys, duplicate keys, missing keys and wrong types —
//! that strictness is what `trace validate` runs in CI.

use crate::trace::{EventKind, TraceEvent};
use std::fmt::Write as _;

/// Appends a JSON string literal (with escaping) to `out`.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
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

/// Encodes one event as its canonical JSON line (no trailing newline).
pub fn encode_event(event: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(out, "{{\"shard\":{},\"seq\":{},\"kind\":\"{}\",\"path\":", event.shard, event.seq, event.kind.label());
    push_json_string(&mut out, &event.path);
    let _ = write!(out, ",\"wall_us\":{},\"attrs\":{{", event.wall_us);
    for (i, (k, v)) in event.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        out.push(':');
        push_json_string(&mut out, v);
    }
    out.push_str("}}");
    out
}

/// Encodes events as JSONL (one line per event, trailing newline).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&encode_event(event));
        out.push('\n');
    }
    out
}

/// Encodes events with wall-clock fields zeroed — the byte-identical
/// form the determinism suite compares across `--jobs` counts.
pub fn normalized_jsonl(events: &[TraceEvent]) -> String {
    let normalized: Vec<TraceEvent> = events.iter().map(TraceEvent::normalized).collect();
    to_jsonl(&normalized)
}

/// A schema violation found while parsing a JSONL line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 when unknown at construction).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Self {
        Self { text: s, bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: 0, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.pos
            )))
        }
    }

    fn parse_u64(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(format!("expected unsigned integer at byte {start}")));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("integer out of range"))
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash as one slice. Both are ASCII, so the run ends on a
            // character boundary of the already valid UTF-8 line.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: decode the escape.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.bytes.len()
    }
}

/// Parses and validates one JSONL line against the event schema.
///
/// # Errors
///
/// [`ParseError`] (with `line` set to 0; callers stamp the real line
/// number) on malformed JSON, unknown/duplicate/missing keys, or
/// wrong value types.
pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
    let mut sc = Scanner::new(line);
    sc.expect(b'{')?;
    let mut shard = None;
    let mut seq = None;
    let mut kind = None;
    let mut path = None;
    let mut wall_us = None;
    let mut attrs: Option<Vec<(String, String)>> = None;
    sc.skip_ws();
    if sc.peek() != Some(b'}') {
        loop {
            let key = sc.parse_string()?;
            sc.expect(b':')?;
            let dup = match key.as_str() {
                "shard" => shard.replace(sc.parse_u64()?).is_some(),
                "seq" => seq.replace(sc.parse_u64()?).is_some(),
                "kind" => {
                    let label = sc.parse_string()?;
                    let parsed = EventKind::parse(&label)
                        .ok_or_else(|| sc.err(format!("unknown kind \"{label}\"")))?;
                    kind.replace(parsed).is_some()
                }
                "path" => path.replace(sc.parse_string()?).is_some(),
                "wall_us" => wall_us.replace(sc.parse_u64()?).is_some(),
                "attrs" => {
                    let mut map = Vec::new();
                    sc.expect(b'{')?;
                    sc.skip_ws();
                    if sc.peek() != Some(b'}') {
                        loop {
                            let k = sc.parse_string()?;
                            sc.expect(b':')?;
                            let v = sc.parse_string()?;
                            if map.iter().any(|(ek, _)| *ek == k) {
                                return Err(sc.err(format!("duplicate attr key \"{k}\"")));
                            }
                            map.push((k, v));
                            sc.skip_ws();
                            if sc.peek() == Some(b',') {
                                sc.pos += 1;
                                sc.skip_ws();
                            } else {
                                break;
                            }
                        }
                    }
                    sc.expect(b'}')?;
                    attrs.replace(map).is_some()
                }
                other => return Err(sc.err(format!("unknown key \"{other}\""))),
            };
            if dup {
                return Err(sc.err(format!("duplicate key \"{key}\"")));
            }
            sc.skip_ws();
            if sc.peek() == Some(b',') {
                sc.pos += 1;
                sc.skip_ws();
            } else {
                break;
            }
        }
    }
    sc.expect(b'}')?;
    if !sc.at_end() {
        return Err(sc.err("trailing bytes after event object"));
    }
    Ok(TraceEvent {
        shard: shard.ok_or_else(|| sc.err("missing key \"shard\""))?,
        seq: seq.ok_or_else(|| sc.err("missing key \"seq\""))?,
        kind: kind.ok_or_else(|| sc.err("missing key \"kind\""))?,
        path: path.ok_or_else(|| sc.err("missing key \"path\""))?,
        wall_us: wall_us.ok_or_else(|| sc.err("missing key \"wall_us\""))?,
        attrs: attrs.ok_or_else(|| sc.err("missing key \"attrs\""))?,
    })
}

/// Parses a whole JSONL document, validating every non-empty line.
///
/// # Errors
///
/// The first [`ParseError`], stamped with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line).map_err(|e| ParseError { line: i + 1, ..e })?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            shard: 3,
            seq: 17,
            kind: EventKind::SpanEnter,
            path: "cell/boot".into(),
            wall_us: 0,
            attrs: vec![
                ("use_case".into(), "XSA-212-crash".into()),
                ("detail".into(), "quote \" slash \\ newline \n done".into()),
            ],
        }
    }

    #[test]
    fn encode_is_canonical_and_stable() {
        let e = TraceEvent {
            shard: 0,
            seq: 1,
            kind: EventKind::Point,
            path: "audit/hypercall".into(),
            wall_us: 42,
            attrs: vec![("dom".into(), "dom3".into())],
        };
        assert_eq!(
            encode_event(&e),
            "{\"shard\":0,\"seq\":1,\"kind\":\"point\",\"path\":\"audit/hypercall\",\"wall_us\":42,\"attrs\":{\"dom\":\"dom3\"}}"
        );
    }

    #[test]
    fn round_trip_with_escapes() {
        let e = sample();
        let back = parse_line(&encode_event(&e)).unwrap();
        assert_eq!(back, e);
        // A long attribute mixing multi-byte characters, escapes and
        // control characters, as a fold record's embedded JSON is.
        let long = TraceEvent {
            attrs: vec![("fold".into(), "é漢\"k\":\\🦀\n\t\u{1}/".repeat(4000))],
            ..sample()
        };
        assert_eq!(parse_line(&encode_event(&long)).unwrap(), long);
    }

    #[test]
    fn jsonl_round_trip_and_normalization() {
        let mut e1 = sample();
        e1.wall_us = 999;
        let e2 = TraceEvent { seq: 18, kind: EventKind::SpanExit, ..sample() };
        let doc = to_jsonl(&[e1.clone(), e2.clone()]);
        assert_eq!(doc.lines().count(), 2);
        let back = parse_jsonl(&doc).unwrap();
        assert_eq!(back, vec![e1.clone(), e2.clone()]);
        let norm = normalized_jsonl(&[e1, e2.clone()]);
        assert!(norm.contains("\"wall_us\":0"));
        assert!(!norm.contains("\"wall_us\":999"));
    }

    #[test]
    fn rejects_unknown_missing_duplicate_keys() {
        let unknown = "{\"shard\":0,\"seq\":0,\"kind\":\"point\",\"path\":\"p\",\"wall_us\":0,\"attrs\":{},\"extra\":1}";
        assert!(parse_line(unknown).unwrap_err().message.contains("unknown key"));
        let missing = "{\"shard\":0,\"seq\":0,\"kind\":\"point\",\"path\":\"p\",\"attrs\":{}}";
        assert!(parse_line(missing).unwrap_err().message.contains("missing key \"wall_us\""));
        let dup = "{\"shard\":0,\"shard\":1,\"seq\":0,\"kind\":\"point\",\"path\":\"p\",\"wall_us\":0,\"attrs\":{}}";
        assert!(parse_line(dup).unwrap_err().message.contains("duplicate key"));
    }

    #[test]
    fn rejects_bad_kinds_and_types() {
        let bad_kind = "{\"shard\":0,\"seq\":0,\"kind\":\"other\",\"path\":\"p\",\"wall_us\":0,\"attrs\":{}}";
        assert!(parse_line(bad_kind).unwrap_err().message.contains("unknown kind"));
        let bad_type = "{\"shard\":\"x\",\"seq\":0,\"kind\":\"point\",\"path\":\"p\",\"wall_us\":0,\"attrs\":{}}";
        assert!(parse_line(bad_type).is_err());
        assert!(parse_line("not json").is_err());
        let trailing = "{\"shard\":0,\"seq\":0,\"kind\":\"point\",\"path\":\"p\",\"wall_us\":0,\"attrs\":{}} tail";
        assert!(parse_line(trailing).unwrap_err().message.contains("trailing"));
    }

    #[test]
    fn parse_jsonl_stamps_line_numbers() {
        let doc = "{\"shard\":0,\"seq\":0,\"kind\":\"point\",\"path\":\"p\",\"wall_us\":0,\"attrs\":{}}\nbroken\n";
        let err = parse_jsonl(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("line 2:"));
    }

    #[test]
    fn accepts_whitespace_and_any_key_order() {
        let line = "{ \"attrs\": {}, \"wall_us\": 5, \"path\": \"p\", \"kind\": \"span_exit\", \"seq\": 2, \"shard\": 1 }";
        let e = parse_line(line).unwrap();
        assert_eq!((e.shard, e.seq, e.wall_us), (1, 2, 5));
        assert_eq!(e.kind, EventKind::SpanExit);
    }
}
