//! Minimal CSV import/export for relations.
//!
//! The generators and the benchmark harness exchange datasets as plain CSV.
//! The dialect is deliberately small: comma separator, `"`-quoting with `""`
//! escapes, a header row naming the attributes, and the literal `\N` for
//! null (so empty strings and nulls stay distinguishable). Confidence and
//! fix marks are not serialized — they are experiment state, not data.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::error::ModelError;
use crate::relation::Relation;
use crate::schema::{Schema, ValueType};
use crate::value::Value;

/// Token that encodes SQL null in CSV cells.
const NULL_TOKEN: &str = "\\N";

/// Serialize a relation to CSV (header row + one row per tuple).
pub fn to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    let header: Vec<&str> = rel
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    write_row(&mut out, header.iter().copied());
    for t in rel.rows() {
        let row: Vec<String> = t
            .cells()
            .map(|c| match c.value {
                Value::Null => NULL_TOKEN.to_string(),
                v => v.render().into_owned(),
            })
            .collect();
        write_row(&mut out, row.iter().map(|s| s.as_str()));
    }
    out
}

fn write_row<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    let mut first = true;
    for f in fields {
        if !first {
            out.push(',');
        }
        first = false;
        // `\r` must be quoted too: unquoted carriage returns are consumed
        // by the reader's CRLF tolerance.
        if f.contains(',') || f.contains('"') || f.contains('\n') || f.contains('\r') {
            out.push('"');
            for ch in f.chars() {
                if ch == '"' {
                    out.push('"');
                }
                out.push(ch);
            }
            out.push('"');
        } else {
            let _ = write!(out, "{f}");
        }
    }
    out.push('\n');
}

/// Errors raised while parsing CSV into a relation.
#[derive(Debug, PartialEq)]
pub enum CsvError {
    /// The input had no header row.
    MissingHeader,
    /// Row `row` (1-based, excluding the header) had `got` fields where the
    /// header declared `want`.
    FieldCount { row: usize, want: usize, got: usize },
    /// A quoted field was never closed.
    UnterminatedQuote { row: usize },
    /// The caller-supplied default confidence, the header or a parsed row
    /// violated a model invariant — out-of-range confidence, a repeated
    /// attribute name, arity drift.
    Model(ModelError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingHeader => write!(f, "csv input has no header row"),
            CsvError::FieldCount { row, want, got } => {
                write!(f, "csv row {row}: expected {want} fields, found {got}")
            }
            CsvError::UnterminatedQuote { row } => write!(f, "csv row {row}: unterminated quote"),
            CsvError::Model(e) => write!(f, "csv ingest: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<ModelError> for CsvError {
    fn from(e: ModelError) -> Self {
        CsvError::Model(e)
    }
}

/// Parse CSV produced by [`to_csv`] back into a relation.
///
/// The relation is named `name`; its attributes are the header's fields,
/// all of type [`ValueType::Str`]. Every cell gets confidence `default_cf`,
/// validated to `[0, 1]`. A bad confidence or a repeated header name is a
/// typed [`CsvError::Model`], never a panic.
///
/// Rows stream straight into the relation's columnar store
/// ([`Relation::try_push_row`]); no row tuples are materialized.
pub fn from_csv(name: &str, input: &str, default_cf: f64) -> Result<Relation, CsvError> {
    if !(0.0..=1.0).contains(&default_cf) {
        return Err(CsvError::Model(ModelError::ConfidenceOutOfRange {
            cf: default_cf,
        }));
    }
    let mut rows = parse_rows(input)?.into_iter();
    let header = rows.next().ok_or(CsvError::MissingHeader)?;
    let schema = Arc::new(Schema::try_new(
        name,
        header.into_iter().map(|a| (a, ValueType::Str)),
    )?);
    let mut rel = Relation::empty(schema.clone());
    for (i, row) in rows.enumerate() {
        if row.len() != schema.arity() {
            return Err(CsvError::FieldCount {
                row: i + 1,
                want: schema.arity(),
                got: row.len(),
            });
        }
        let vals: Vec<Value> = row
            .into_iter()
            .map(|field| {
                if field == NULL_TOKEN {
                    Value::Null
                } else {
                    Value::from(field)
                }
            })
            .collect();
        rel.try_push_row(vals, default_cf)?;
    }
    Ok(rel)
}

/// Split CSV text into rows of unescaped fields.
fn parse_rows(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut rows = Vec::new();
    let mut field = String::new();
    let mut row: Vec<String> = Vec::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(ch) = chars.next() {
        any = true;
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(ch),
            }
        } else {
            match ch {
                '"' => in_quotes = true,
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                '\r' => {} // tolerate CRLF
                _ => field.push(ch),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { row: rows.len() });
    }
    if any && (!field.is_empty() || !row.is_empty()) {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn sample() -> Relation {
        let schema = Schema::of_strings("r", &["name", "city"]);
        Relation::new(
            schema,
            vec![
                Tuple::of_strs(&["Mark Smith", "Edi"], 0.5),
                Tuple::of_strs(&["Brady, Robert", "Ldn"], 0.5),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_values() {
        let rel = sample();
        let csv = to_csv(&rel);
        let back = from_csv("r", &csv, 0.5).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(rel.diff_cells(&back), 0);
    }

    #[test]
    fn commas_are_quoted() {
        let csv = to_csv(&sample());
        assert!(csv.contains("\"Brady, Robert\""));
    }

    #[test]
    fn quotes_are_escaped() {
        let schema = Schema::of_strings("r", &["A"]);
        let rel = Relation::new(schema, vec![Tuple::of_strs(&["say \"hi\""], 0.0)]);
        let csv = to_csv(&rel);
        assert!(csv.contains("\"say \"\"hi\"\"\""));
        let back = from_csv("r", &csv, 0.0).unwrap();
        assert_eq!(
            back.tuple(crate::TupleId(0)).value(crate::AttrId(0)),
            &Value::str("say \"hi\"")
        );
    }

    #[test]
    fn null_token_roundtrips() {
        let schema = Schema::of_strings("r", &["A"]);
        let mut rel = Relation::new(schema, vec![Tuple::of_strs(&["x"], 0.0)]);
        rel.tuple_mut(crate::TupleId(0)).set(
            crate::AttrId(0),
            Value::Null,
            0.0,
            Default::default(),
        );
        let csv = to_csv(&rel);
        let back = from_csv("r", &csv, 0.0).unwrap();
        assert!(back
            .tuple(crate::TupleId(0))
            .value(crate::AttrId(0))
            .is_null());
    }

    #[test]
    fn columns_come_from_the_parsed_header() {
        let rel = from_csv("r", "\"AC,x\",city\n131,Edi\n", 0.0).unwrap();
        assert_eq!(rel.schema().arity(), 2);
        assert_eq!(rel.schema().attr_name(crate::AttrId(0)), "AC,x");
    }

    #[test]
    fn duplicate_header_name_is_a_typed_error() {
        assert_eq!(
            from_csv("r", "A,B,A\nx,y,z\n", 0.0).unwrap_err(),
            CsvError::Model(ModelError::DuplicateAttribute {
                schema: "r".into(),
                attr: "A".into()
            })
        );
    }

    #[test]
    fn field_count_mismatch_is_reported() {
        let csv = "A,B\nonly-one\n";
        let err = from_csv("r", csv, 0.0).unwrap_err();
        assert_eq!(
            err,
            CsvError::FieldCount {
                row: 1,
                want: 2,
                got: 1
            }
        );
    }

    #[test]
    fn empty_input_is_missing_header() {
        assert_eq!(from_csv("r", "", 0.0).unwrap_err(), CsvError::MissingHeader);
    }

    #[test]
    fn crlf_is_tolerated() {
        let csv = "A,B\r\nx,y\r\n";
        let rel = from_csv("r", csv, 0.0).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(
            rel.tuple(crate::TupleId(0)).value(crate::AttrId(1)),
            &Value::str("y")
        );
    }

    #[test]
    fn final_row_without_newline_is_kept() {
        let csv = "A\nx\ny";
        let rel = from_csv("r", csv, 0.0).unwrap();
        assert_eq!(rel.len(), 2);
    }
}
