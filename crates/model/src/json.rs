//! Hand-rolled JSON values and the tuple/batch wire codecs.
//!
//! The serving layer (`uniclean-server`) speaks line-delimited JSON over
//! TCP, and this workspace deliberately carries **no external
//! dependencies** — so the model crate owns one small, strict JSON
//! implementation shared by the daemon, the CLI and the bench harness:
//!
//! * [`Json`] — an ordered JSON value tree with a recursive-descent
//!   [`Json::parse`] and a deterministic [`Json::render`] (object keys
//!   keep insertion order; `f64`s render via Rust's shortest
//!   round-trip `Display`, so a confidence travels the wire
//!   bit-exactly),
//! * codecs between JSON rows and the relational model: a wire **cell**
//!   is either a scalar value (confidence defaulted by the endpoint) or
//!   a `[value, cf]` pair on ingest, and a `[value, cf, "mark"]` triple
//!   when a repaired relation is dumped ([`tuple_from_json`],
//!   [`batch_from_json`], [`tuple_to_json`]).
//!
//! Scalars map onto [`Value`] as: JSON string → [`Value::Str`], integral
//! JSON number → [`Value::Int`], JSON `null` → [`Value::Null`].
//! Booleans and fractional numbers have no relational counterpart and are
//! rejected with a typed [`JsonError`].

use std::fmt;

use crate::error::ModelError;
use crate::pos::AttrId;
use crate::relation::Relation;
use crate::store::TupleRef;
use crate::tuple::{Cell, Tuple};
use crate::value::Value;

/// A parsed JSON value. Objects preserve insertion order (parse order /
/// push order), which keeps rendered responses and reports byte-stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (one `f64`, like the reference JS data model).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

/// Why a JSON text or a wire row was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed JSON text: byte offset and what the parser expected.
    Syntax {
        /// Byte offset of the offending input.
        pos: usize,
        /// What was wrong.
        msg: &'static str,
    },
    /// Well-formed JSON that does not fit the expected shape (wrong type,
    /// wrong arity, out-of-range confidence, …).
    Shape(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { pos, msg } => write!(f, "malformed JSON at byte {pos}: {msg}"),
            JsonError::Shape(msg) => write!(f, "unexpected JSON shape: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<ModelError> for JsonError {
    fn from(e: ModelError) -> Self {
        JsonError::Shape(e.to_string())
    }
}

impl Json {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parse one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Render as compact JSON (no whitespace). Deterministic: object keys
    /// keep their stored order, numbers use Rust's shortest round-trip
    /// `f64` display (whole numbers print without a fraction part).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Member lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if integral and in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The number as a non-negative 64-bit integer, if integral and
    /// exactly representable (JSON numbers are doubles, so anything past
    /// 2^53 is out regardless).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Number rendering: whole numbers in integer form, everything else via
/// Rust's shortest round-trip `f64` display (never scientific notation,
/// so the output is always valid JSON).
fn render_num(n: f64, out: &mut String) {
    debug_assert!(n.is_finite(), "JSON cannot carry {n}");
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn render_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError::Syntax { pos: self.pos, msg }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped UTF-8 runs wholesale.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so the run is valid UTF-8.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate escape")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid unicode escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // `f64::from_str` saturates to infinity (`1e999`), which no JSON
        // text can carry back out.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError::Syntax {
                pos: start,
                msg: "number out of range",
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Tuple / batch wire codecs.
// ---------------------------------------------------------------------------

/// A [`Value`] as a wire scalar: strings as JSON strings, integers as
/// JSON numbers, null as `null`.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Int(i) => Json::Num(*i as f64),
    }
}

/// A wire scalar as a [`Value`]. Booleans and fractional numbers have no
/// relational counterpart and are rejected; integral numbers beyond the
/// exact-`f64` range (±2⁵³) are rejected rather than silently rounded.
pub fn value_from_json(j: &Json) -> Result<Value, JsonError> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Str(s) => Ok(Value::str(s)),
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 => {
            Ok(Value::int(*n as i64))
        }
        Json::Num(_) => Err(JsonError::Shape(
            "numeric cell values must be exact integers".into(),
        )),
        other => Err(JsonError::Shape(format!(
            "expected a string, integer or null cell value, got {other}"
        ))),
    }
}

/// One wire row as a [`Tuple`]. A row is an array of `arity` cells; each
/// cell is either a scalar value (confidence `default_cf`) or a
/// `[value, cf]` pair. Confidence is validated into `[0, 1]` here, so a
/// bad row is a typed error before it ever reaches the engine.
pub fn tuple_from_json(row: &Json, arity: usize, default_cf: f64) -> Result<Tuple, JsonError> {
    let cells = row
        .as_arr()
        .ok_or_else(|| JsonError::Shape(format!("expected a row array, got {row}")))?;
    if cells.len() != arity {
        return Err(JsonError::Shape(format!(
            "row has {} cells, schema has {arity}",
            cells.len()
        )));
    }
    let mut out = Vec::with_capacity(arity);
    for cell in cells {
        match cell {
            Json::Arr(pair) => {
                if pair.len() != 2 {
                    return Err(JsonError::Shape(format!(
                        "a cell pair is [value, cf]; got {} elements",
                        pair.len()
                    )));
                }
                let value = value_from_json(&pair[0])?;
                let cf = pair[1].as_f64().ok_or_else(|| {
                    JsonError::Shape(format!("cell confidence must be a number, got {}", pair[1]))
                })?;
                out.push(Cell::try_new(value, cf)?);
            }
            scalar => out.push(Cell::try_new(value_from_json(scalar)?, default_cf)?),
        }
    }
    Ok(Tuple::new(out))
}

/// A wire batch (array of rows) as tuples — the `ingest` payload codec.
pub fn batch_from_json(
    rows: &Json,
    arity: usize,
    default_cf: f64,
) -> Result<Vec<Tuple>, JsonError> {
    let rows = rows
        .as_arr()
        .ok_or_else(|| JsonError::Shape(format!("expected an array of rows, got {rows}")))?;
    rows.iter()
        .map(|row| tuple_from_json(row, arity, default_cf))
        .collect()
}

/// A decoded [`Tuple`] back to the ingest wire shape, every cell as an
/// explicit `[value, cf]` pair — the exact inverse of [`tuple_from_json`]
/// regardless of the `default_cf` in force when the batch re-decodes.
/// This is what the serving WAL records: replaying a logged batch through
/// [`batch_from_json`] reconstructs the original tuples bit-identically
/// (confidences survive via the shortest round-trip `f64` rendering).
pub fn tuple_to_ingest_json(t: &Tuple) -> Json {
    Json::Arr(
        t.cells()
            .iter()
            .map(|c| Json::Arr(vec![value_to_json(&c.value), Json::Num(c.cf)]))
            .collect(),
    )
}

/// A decoded batch back to the ingest wire shape (see
/// [`tuple_to_ingest_json`]).
pub fn batch_to_ingest_json(rows: &[Tuple]) -> Json {
    Json::Arr(rows.iter().map(tuple_to_ingest_json).collect())
}

/// One stored row as a wire row of `[value, cf, "mark"]` triples — the
/// dump codec, carrying everything the bit-identity contract pins
/// (values, exact confidences via shortest round-trip `f64` rendering,
/// and fix marks as their display letters `-`/`D`/`R`/`P`).
pub fn tuple_to_json(t: TupleRef<'_>) -> Json {
    Json::Arr(
        (0..t.arity())
            .map(|i| {
                let a = AttrId::from(i);
                Json::Arr(vec![
                    value_to_json(t.value(a)),
                    Json::Num(t.cf(a)),
                    Json::Str(t.mark(a).to_string()),
                ])
            })
            .collect(),
    )
}

/// A whole relation as wire rows (see [`tuple_to_json`]).
pub fn relation_to_json(r: &Relation) -> Json {
    Json::Arr(r.rows().map(tuple_to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::FixMark;

    #[test]
    fn parses_the_usual_shapes() {
        let j = Json::parse(r#"{"op":"ingest","rows":[["131",["Edi",0.75],null]],"n":3}"#).unwrap();
        assert_eq!(j.get("op").and_then(Json::as_str), Some("ingest"));
        assert_eq!(j.get("n").and_then(Json::as_usize), Some(3));
        let rows = j.get("rows").and_then(Json::as_arr).unwrap();
        let row = rows[0].as_arr().unwrap();
        assert_eq!(row[0], Json::str("131"));
        assert_eq!(row[1], Json::Arr(vec![Json::str("Edi"), Json::Num(0.75)]));
        assert_eq!(row[2], Json::Null);
    }

    #[test]
    fn render_parse_round_trips() {
        let j = Json::Obj(vec![
            ("s".into(), Json::str("a\"b\\c\nd\u{1F600}")),
            ("n".into(), Json::Num(0.30000000000000004)),
            ("i".into(), Json::Num(42.0)),
            ("b".into(), Json::Bool(true)),
            ("z".into(), Json::Null),
            ("a".into(), Json::Arr(vec![Json::Num(-1.5)])),
        ]);
        let text = j.render();
        assert_eq!(Json::parse(&text).unwrap(), j);
        // Whole numbers render without a fraction part.
        assert!(text.contains("\"i\":42"), "{text}");
    }

    #[test]
    fn confidences_travel_bit_exactly() {
        for cf in [0.0, 0.1, 1.0 / 3.0, 0.7, 0.9999999999999999, 1.0] {
            let text = Json::Num(cf).render();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(cf), "{text}");
        }
    }

    #[test]
    fn numbers_past_f64_are_syntax_errors() {
        for bad in ["1e999", "-1e309", "[0, 2e400]"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn surrogate_pairs_and_escapes_decode() {
        let j = Json::parse(r#""😀 é \t\/""#).unwrap();
        assert_eq!(j.as_str(), Some("\u{1F600} é \t/"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn malformed_documents_report_the_offset() {
        for bad in ["{", "[1,]", "{\"a\":}", "nul", "\"x", "1 2", "01", "1.e3"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(
                matches!(err, JsonError::Syntax { .. }),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn tuple_codec_reads_scalars_and_pairs() {
        let row = Json::parse(r#"["131",["Edi",0.75],null,7]"#).unwrap();
        let t = tuple_from_json(&row, 4, 0.5).unwrap();
        assert_eq!(t.value(AttrId::from(0)), &Value::str("131"));
        assert_eq!(t.cf(AttrId::from(0)), 0.5);
        assert_eq!(t.value(AttrId::from(1)), &Value::str("Edi"));
        assert_eq!(t.cf(AttrId::from(1)), 0.75);
        assert_eq!(t.value(AttrId::from(2)), &Value::Null);
        assert_eq!(t.value(AttrId::from(3)), &Value::int(7));
    }

    #[test]
    fn tuple_codec_rejects_bad_rows() {
        let wrong_arity = Json::parse(r#"["a","b"]"#).unwrap();
        assert!(tuple_from_json(&wrong_arity, 3, 0.5).is_err());
        let bad_cf = Json::parse(r#"[["a",1.5]]"#).unwrap();
        assert!(tuple_from_json(&bad_cf, 1, 0.5).is_err());
        let bool_cell = Json::parse("[true]").unwrap();
        assert!(tuple_from_json(&bool_cell, 1, 0.5).is_err());
        let fractional = Json::parse("[1.25]").unwrap();
        assert!(tuple_from_json(&fractional, 1, 0.5).is_err());
        let not_array = Json::parse(r#""row""#).unwrap();
        assert!(tuple_from_json(&not_array, 1, 0.5).is_err());
    }

    #[test]
    fn dump_codec_round_trips_cells_exactly() {
        let s = Schema::of_strings("t", &["a", "b"]);
        let mut rel = Relation::empty(s);
        let mut t = Tuple::of_strs(&["x", "y"], 0.7);
        t.set(
            AttrId::from(1),
            Value::str("z"),
            1.0 / 3.0,
            FixMark::Reliable,
        );
        rel.push(t);
        let wire = relation_to_json(&rel).render();
        let back = Json::parse(&wire).unwrap();
        let row = back.as_arr().unwrap()[0].as_arr().unwrap();
        let cell = row[1].as_arr().unwrap();
        assert_eq!(cell[0].as_str(), Some("z"));
        assert_eq!(cell[1].as_f64(), Some(1.0 / 3.0));
        assert_eq!(cell[2].as_str(), Some("R"));
    }
}
