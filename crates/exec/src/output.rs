//! Output plugins (ViDa Figure 3 / Figure 4).
//!
//! "Query output is given to output plugins, which materialize it in the
//! format an application expects." A query result — one [`Value`], typically
//! a collection of records — can leave the engine as:
//!
//! - **parsed values** ([`OutputFormat::Values`]): the in-memory `Value`
//!   rows, for callers staying inside the engine;
//! - **text** ([`OutputFormat::Text`]): one printed row per line, the
//!   paper's "CSV or JSON output" for interactive use;
//! - **binary JSON** ([`OutputFormat::BinaryJson`]): the compact
//!   serialization of `vida-cache::bson`, Figure 4's layout (b), for
//!   applications that re-read results repeatedly;
//! - **CSV rows** ([`OutputFormat::Csv`]): RFC-4180-style quoted rows for
//!   flat record collections.
//!
//! Text and CSV encode from the borrowed rows straight into one buffer
//! ([`EncodedRows`]), so a result of n rows costs O(1) allocations to
//! encode, not a clone of every row plus a buffer per row and per cell.

use std::fmt::Write;
use vida_cache::bson;
use vida_types::{Result, Value, VidaError};

/// The materialization formats an application can request for a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputFormat {
    Values,
    Text,
    BinaryJson,
    Csv,
}

impl OutputFormat {
    /// Materialize `result` in this format as bytes (the uniform plugin
    /// interface; use the typed helpers below to avoid re-parsing).
    pub fn write(&self, result: &Value) -> Result<Vec<u8>> {
        match self {
            OutputFormat::Values => Ok(bson::to_bytes(result)),
            OutputFormat::Text => Ok(to_text(result).into_bytes()),
            OutputFormat::BinaryJson => Ok(to_binary_json(result)),
            OutputFormat::Csv => to_csv(result).map(String::into_bytes),
        }
    }
}

/// The result as a row list, borrowed: a collection's elements, or a
/// scalar result as its one row.
pub fn rows(result: &Value) -> &[Value] {
    result
        .elements()
        .unwrap_or_else(|| std::slice::from_ref(result))
}

/// One printed row per line (scalar results print as one line).
pub fn to_text(result: &Value) -> String {
    text_rows(result).text
}

/// The whole result in the binary-JSON layout of Figure 4 (b).
pub fn to_binary_json(result: &Value) -> Vec<u8> {
    bson::to_bytes(result)
}

/// CSV rows with a header line. Requires every row to be a record of
/// scalars sharing the first row's field set; scalar results become a
/// single `value` column.
pub fn to_csv(result: &Value) -> Result<String> {
    csv_rows(result).map(|rows| rows.text)
}

/// A result encoded as text lines in one buffer, one row per line (CSV's
/// header line first), each ended by `\n`.
#[derive(Debug, Default)]
pub struct EncodedRows {
    text: String,
    /// Where each line ends, its `\n` excluded. A quoted CSV cell may hold
    /// a newline of its own, so splitting `text` would not find the lines.
    ends: Vec<usize>,
}

impl EncodedRows {
    fn end_line(&mut self) {
        self.ends.push(self.text.len());
        self.text.push('\n');
    }

    /// The lines, without their `\n`.
    pub fn lines(&self) -> impl Iterator<Item = &str> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().map(|e| e + 1));
        starts.zip(&self.ends).map(|(s, &e)| &self.text[s..e])
    }
}

/// [`to_text`]'s lines, printed from the borrowed rows.
pub fn text_rows(result: &Value) -> EncodedRows {
    let mut out = EncodedRows::default();
    for row in rows(result) {
        // Writing to a `String` cannot fail.
        let _ = write!(out.text, "{row}");
        out.end_line();
    }
    out
}

/// [`to_csv`]'s lines, header first, encoded from the borrowed rows
/// straight into one buffer: no row or cell gets a buffer of its own.
pub fn csv_rows(result: &Value) -> Result<EncodedRows> {
    let rows = rows(result);
    let mut out = EncodedRows::default();
    let Some(first) = rows.first() else {
        return Ok(out);
    };
    let header: Vec<&str> = match first {
        Value::Record(fields) => fields.iter().map(|(n, _)| n.as_str()).collect(),
        _ => vec!["value"],
    };
    out.text.push_str(&header.join(","));
    out.end_line();
    for row in rows {
        match row {
            Value::Record(fields) => {
                if fields.len() != header.len()
                    || fields.iter().zip(&header).any(|((n, _), h)| n != h)
                {
                    return Err(VidaError::Exec(format!(
                        "csv output requires uniform record rows, got {row}"
                    )));
                }
                for (i, (_, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.text.push(',');
                    }
                    push_csv_cell(&mut out.text, v)?;
                }
            }
            v if header == ["value"] => push_csv_cell(&mut out.text, v)?,
            v => {
                return Err(VidaError::Exec(format!(
                    "csv output requires uniform record rows, got {v}"
                )))
            }
        }
        out.end_line();
    }
    Ok(out)
}

fn push_csv_cell(out: &mut String, v: &Value) -> Result<()> {
    // Writing to a `String` cannot fail.
    let _ = match v {
        Value::Null => Ok(()),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Int(i) => write!(out, "{i}"),
        Value::Float(f) => write!(out, "{f}"),
        Value::Str(s) if s.contains([',', '"', '\n', '\r']) => {
            write!(out, "\"{}\"", s.replace('"', "\"\""))
        }
        Value::Str(s) => out.write_str(s),
        other => {
            return Err(VidaError::Exec(format!(
                "csv output cannot encode nested value {other}"
            )))
        }
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_rows() -> Value {
        Value::bag(vec![
            Value::record([("id", Value::Int(1)), ("city", Value::str("geneva"))]),
            Value::record([("id", Value::Int(2)), ("city", Value::str("a,\"b\""))]),
        ])
    }

    #[test]
    fn values_output_lists_rows() {
        assert_eq!(rows(&result_rows()).len(), 2);
        assert_eq!(rows(&Value::Int(7)), [Value::Int(7)]);
    }

    #[test]
    fn text_output_one_row_per_line() {
        let t = to_text(&result_rows());
        assert_eq!(t.lines().count(), 2);
        assert!(t.starts_with("(id := 1, city := \"geneva\")\n"));
        assert_eq!(to_text(&Value::Int(7)), "7\n");
    }

    #[test]
    fn binary_json_round_trips() {
        let r = result_rows();
        let bytes = to_binary_json(&r);
        let (back, _) = bson::decode_value(&bytes, 0).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn csv_output_quotes_and_headers() {
        let csv = to_csv(&result_rows()).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("id,city"));
        assert_eq!(lines.next(), Some("1,geneva"));
        assert_eq!(lines.next(), Some("2,\"a,\"\"b\"\"\""));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn csv_lines_keep_a_quoted_newline_inside_its_row() {
        let r = Value::bag(vec![
            Value::record([("id", Value::Int(1)), ("note", Value::str("two\nlines"))]),
            Value::record([("id", Value::Int(2)), ("note", Value::Null)]),
        ]);
        let rows = csv_rows(&r).unwrap();
        let lines: Vec<&str> = rows.lines().collect();
        assert_eq!(lines, ["id,note", "1,\"two\nlines\"", "2,"]);
        assert_eq!(to_csv(&r).unwrap(), "id,note\n1,\"two\nlines\"\n2,\n");
        let text: Vec<String> = text_rows(&Value::Int(7))
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(text, ["7"]);
    }

    #[test]
    fn csv_scalar_result_uses_value_column() {
        assert_eq!(to_csv(&Value::Int(42)).unwrap(), "value\n42\n");
        assert_eq!(to_csv(&Value::bag(vec![])).unwrap(), "");
    }

    #[test]
    fn csv_rejects_ragged_or_nested_rows() {
        let ragged = Value::bag(vec![
            Value::record([("a", Value::Int(1))]),
            Value::record([("b", Value::Int(2))]),
        ]);
        assert!(to_csv(&ragged).is_err());
        let nested = Value::bag(vec![Value::record([(
            "xs",
            Value::list(vec![Value::Int(1)]),
        )])]);
        assert!(to_csv(&nested).is_err());
    }

    #[test]
    fn format_write_dispatches() {
        let r = result_rows();
        assert_eq!(
            OutputFormat::BinaryJson.write(&r).unwrap(),
            to_binary_json(&r)
        );
        assert_eq!(
            OutputFormat::Text.write(&r).unwrap(),
            to_text(&r).into_bytes()
        );
        assert!(OutputFormat::Csv.write(&Value::Int(1)).is_ok());
        assert!(!OutputFormat::Values.write(&r).unwrap().is_empty());
    }
}
