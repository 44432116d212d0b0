//! The hand-rolled JSON machinery shared by the crate's line-JSON formats:
//! the `--trace` event stream, the `semint serve` wire protocol and the
//! daemon's durable job journal.
//!
//! The workspace is offline (no serde), so this module carries just enough
//! for those documents: `escape_json` for the writers, a small `Reader`
//! producing `Json` values with line/column error context, and the shared
//! [`FORMAT_VERSION`] policy.  Saved sweep and bench reports are not JSON:
//! they use the report TSV of
//! [`SweepReport::to_tsv`](semint_core::stats::SweepReport::to_tsv).

use std::fmt::Write as _;

/// The current version of every JSON document this crate writes: the
/// `semint serve` wire protocol and the daemon's durable job journal both
/// stamp their documents with `"version": FORMAT_VERSION` so the one format
/// can evolve.
/// Parsers tolerate an *absent* field (the v1 documents written before the
/// field existed) and reject versions newer than they understand.
pub const FORMAT_VERSION: u64 = 2;

/// Opens a document stamped `"<marker>": 1` and the current version, for
/// [`parse_stamped`] to check; the caller adds fields and the closing brace.
pub(crate) fn stamp(marker: &str) -> String {
    format!("{{\"{marker}\": 1, \"version\": {FORMAT_VERSION}")
}

/// Parses one line-JSON document stamped `"<marker>": 1` and the shared
/// `version` field: trailing content, another marker value (`kind` names
/// it in the error) and a newer version are all rejected.
pub(crate) fn parse_stamped(line: &str, marker: &str, kind: &str) -> Result<Json, String> {
    let mut reader = Reader::new(line);
    let doc = reader
        .value()
        .map_err(|e| format!("{} ({e})", reader.position()))?;
    if reader.peek_after_ws().is_some() {
        return Err(format!("trailing content after the {marker} document"));
    }
    match doc.require(marker)?.as_u64(marker)? {
        1 => {}
        other => return Err(format!("unsupported {marker} {kind} {other}")),
    }
    document_version(&doc)?;
    Ok(doc)
}

/// Reads the shared `version` field of a parsed document: absent means v1,
/// anything above [`FORMAT_VERSION`] is from a newer writer and rejected.
fn document_version(doc: &Json) -> Result<u64, String> {
    let version = match doc.get("version") {
        None => 1,
        Some(value) => value.as_u64("version")?,
    };
    if version > FORMAT_VERSION {
        return Err(format!(
            "document version {version} is newer than this binary understands \
             (up to {FORMAT_VERSION}); upgrade semint"
        ));
    }
    Ok(version)
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

// ---------------------------------------------------------------------------
// A minimal JSON reader — just enough for the documents the writers emit
// (objects, arrays, strings, numbers, booleans), with friendly errors.

/// A parsed JSON value.  Numbers keep their source text so integer fields
/// round-trip without a float detour.  Shared with the trace-profile reader
/// (`semint profile` parses JSONL lines with the same machinery).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// An object, in source order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A string (escapes resolved).
    Str(String),
    /// A number, as written.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn require<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(text) => text
                .parse::<u64>()
                .map_err(|e| format!("{what}: {text:?} is not a non-negative integer ({e})")),
            other => Err(format!("{what}: expected a number, got {other:?}")),
        }
    }

    pub(crate) fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected a boolean, got {other:?}")),
        }
    }

    pub(crate) fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected a string, got {other:?}")),
        }
    }
}

pub(crate) struct Reader<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    /// 1-based line of the next unconsumed character.
    line: usize,
    /// 1-based column of the next unconsumed character.
    column: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            chars: text.chars().peekable(),
            line: 1,
            column: 1,
        }
    }

    /// Consumes one character, keeping the line/column cursor current so
    /// parse errors can say where they happened.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        match c {
            Some('\n') => {
                self.line += 1;
                self.column = 1;
            }
            Some(_) => self.column += 1,
            None => {}
        }
        c
    }

    /// The reader's current position, for error context.
    pub(crate) fn position(&self) -> String {
        format!("line {}, column {}", self.line, self.column)
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, wanted: char) -> Result<(), String> {
        self.skip_ws();
        match self.bump() {
            Some(c) if c == wanted => Ok(()),
            Some(c) => Err(format!("expected {wanted:?}, found {c:?}")),
            None => Err(format!("expected {wanted:?}, found end of input")),
        }
    }

    pub(crate) fn peek_after_ws(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.peek().copied()
    }

    pub(crate) fn value(&mut self) -> Result<Json, String> {
        match self.peek_after_ws() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(Json::Str),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected character {c:?}")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for wanted in word.chars() {
            match self.bump() {
                Some(c) if c == wanted => {}
                other => return Err(format!("malformed literal `{word}` (at {other:?})")),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let mut text = String::new();
        while let Some(&c) = self.chars.peek() {
            if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Validate through the float grammar; integer consumers re-parse.
        text.parse::<f64>()
            .map_err(|e| format!("malformed number {text:?}: {e}"))?;
        Ok(Json::Num(text))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("malformed \\u escape")?;
                            code = code * 16 + digit;
                        }
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        if self.peek_after_ws() == Some('}') {
            self.bump();
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek_after_ws() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {
                    self.bump();
                    return Ok(Json::Object(fields));
                }
                other => return Err(format!("expected ',' or '}}' in object, found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        if self.peek_after_ws() == Some(']') {
            self.bump();
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek_after_ws() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_errors_carry_line_and_column_context() {
        let mut reader = Reader::new("{\n  \"semint_journal\": 1,\n  oops\n}");
        assert!(reader.value().is_err());
        let position = reader.position();
        assert!(position.contains("line 3"), "{position}");
        let mut reader = Reader::new("{\"semint_journal\": 1, }");
        let err = reader.value().unwrap_err();
        assert!(err.contains("'}'"), "{err}");
        assert_eq!(reader.position(), "line 1, column 24");
    }

    #[test]
    fn strings_with_special_characters_survive() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut reader = Reader::new("\"a\\\"b\\\\c\\nd\\u0041\"");
        assert_eq!(reader.string().unwrap(), "a\"b\\c\ndA");
    }
}
