//! CSV import/export with type inference.
//!
//! Silos in practice expose their tables as files; this module lets the
//! examples and benchmarks round-trip [`Table`]s through CSV. The parser
//! handles RFC-4180 quoting (embedded commas, quotes, newlines) and infers
//! the narrowest column type over all rows (`Int64 → Float64 → Bool →
//! Utf8`, with empty cells as NULL).

use crate::{Column, Field, RelationalError, Result, Schema, Table, Value};
use std::borrow::Cow;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::str::FromStr;

/// Parses CSV text (first line = header) into a table named `name`.
/// One leading byte-order mark (U+FEFF), as spreadsheet exports write,
/// is not part of the first column's name; anywhere else it is data.
///
/// # Errors
/// Returns [`RelationalError::Parse`] on malformed quoting or ragged rows.
pub fn read_csv_str(name: &str, text: &str) -> Result<Table> {
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let records = parse_records(text)?;
    let Some(&arity) = records.ends.first() else {
        return Err(RelationalError::Parse("empty CSV input".into()));
    };
    let rows = records.ends.len() - 1;
    for (i, w) in records.ends.windows(2).enumerate() {
        if w[1] - w[0] != arity {
            return Err(RelationalError::Parse(format!(
                "row {} has {} fields, header has {arity}",
                i + 1,
                w[1] - w[0]
            )));
        }
    }
    // Every record holds `arity` fields, so cell (row r, column c) is
    // field `(r + 1) * arity + c` — the header is record 0.
    let (header, cells) = records.fields.split_at(arity);
    let columns: Vec<Column> = (0..arity)
        .map(|c| parse_column(cells.iter().skip(c).step_by(arity).map(|f| f.as_ref())))
        .collect();
    let schema = Schema::new(
        header
            .iter()
            .zip(&columns)
            .map(|(n, col)| Field::new(n.as_ref(), col.dtype()))
            .collect(),
    )?;
    Ok(Table::from_columns(name, schema, columns, rows))
}

/// Reads a CSV file into a table named after the file stem.
pub fn read_csv(path: impl AsRef<Path>) -> Result<Table> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_owned();
    let text = std::fs::read_to_string(path)?;
    read_csv_str(&name, &text)
}

/// Serializes a table to CSV text that [`read_csv_str`] reads back to
/// the same cells and column types: a float cell is written in Rust's
/// round-trip form (`{:?}`), which always keeps a `.0` or an exponent,
/// so `1.0` rereads as `Float64` rather than `Int64` and `-0.0` keeps
/// its sign.
pub fn to_csv_string(table: &Table) -> String {
    let mut out = String::new();
    let names = table.schema().names();
    out.push_str(&escape_row(&names));
    out.push('\n');
    for i in 0..table.num_rows() {
        let cells: Vec<String> = table
            .row(i)
            .iter()
            .map(|v| match v {
                Value::Float(x) => format!("{x:?}"),
                other => other.to_string(),
            })
            .collect();
        let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
        out.push_str(&escape_row(&refs));
        out.push('\n');
    }
    out
}

/// Writes a table to a CSV file.
pub fn write_csv(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(to_csv_string(table).as_bytes())?;
    w.flush()?;
    Ok(())
}

fn escape_row(cells: &[&str]) -> String {
    cells
        .iter()
        .map(|c| {
            // An unquoted CR is a line ending to the reader, so a cell
            // holding one is quoted like one holding a newline.
            if c.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                (*c).to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The fields of a CSV text, record after record.
struct Records<'a> {
    /// A field borrows from the text whenever its content is one
    /// contiguous piece of it — any unquoted field, and a quoted one
    /// without an escaped quote.
    fields: Vec<Cow<'a, str>>,
    /// `ends[r]` is one past record `r`'s last field in `fields`.
    ends: Vec<usize>,
}

/// A field under construction: a piece of the text for as long as what is
/// appended continues it, its own buffer from the first gap on.
struct FieldBuilder<'a> {
    text: &'a str,
    piece: std::ops::Range<usize>,
    owned: Option<String>,
}

impl<'a> FieldBuilder<'a> {
    /// Appends bytes `from..to` of the text.
    fn push(&mut self, from: usize, to: usize) {
        if let Some(buf) = &mut self.owned {
            buf.push_str(&self.text[from..to]);
        } else if self.piece.is_empty() {
            self.piece = from..to;
        } else if self.piece.end == from {
            self.piece.end = to;
        } else {
            let mut buf = self.text[self.piece.clone()].to_owned();
            buf.push_str(&self.text[from..to]);
            self.owned = Some(buf);
        }
    }

    fn is_empty(&self) -> bool {
        self.piece.is_empty() && self.owned.is_none()
    }

    /// The finished field; the builder starts over.
    fn take(&mut self) -> Cow<'a, str> {
        let piece = std::mem::take(&mut self.piece);
        match self.owned.take() {
            Some(buf) => Cow::Owned(buf),
            None => Cow::Borrowed(&self.text[piece]),
        }
    }
}

/// Splits CSV text into records of unquoted fields.
///
/// Works on bytes: the four characters with a meaning (`"`, `,`, CR, LF)
/// are ASCII, which never occurs inside a multi-byte UTF-8 sequence, so
/// every cut lands on a character boundary.
fn parse_records(text: &str) -> Result<Records<'_>> {
    let bytes = text.as_bytes();
    let mut records = Records {
        fields: Vec::new(),
        ends: Vec::new(),
    };
    let mut field = FieldBuilder {
        text,
        piece: 0..0,
        owned: None,
    };
    let mut in_quotes = false;
    let mut pos = 0;
    while pos < bytes.len() {
        // The run of ordinary bytes up to the next one with a meaning.
        let run = bytes[pos..]
            .iter()
            .position(|&b| b == b'"' || (!in_quotes && matches!(b, b',' | b'\r' | b'\n')))
            .map_or(bytes.len(), |n| pos + n);
        if run > pos {
            field.push(pos, run);
            pos = run;
            continue;
        }
        match bytes[pos] {
            b'"' if in_quotes && bytes.get(pos + 1) == Some(&b'"') => {
                field.push(pos, pos + 1); // an escaped quote: keep one of the two
                pos += 1;
            }
            b'"' => in_quotes = !in_quotes,
            b',' => records.fields.push(field.take()),
            b'\r' => {} // tolerate CRLF
            _ => {
                records.fields.push(field.take());
                records.ends.push(records.fields.len());
            }
        }
        pos += 1;
    }
    if in_quotes {
        return Err(RelationalError::Parse("unterminated quoted field".into()));
    }
    // A last record without its newline.
    let record_start = records.ends.last().copied().unwrap_or(0);
    if !field.is_empty() || records.fields.len() > record_start {
        records.fields.push(field.take());
        records.ends.push(records.fields.len());
    }
    Ok(records)
}

/// Builds a column of the narrowest type that admits every non-empty
/// cell (`Int64 → Float64 → Bool → Utf8`); empty cells are NULL and an
/// all-NULL column defaults to string.
fn parse_column<'a>(cells: impl Iterator<Item = &'a str> + Clone) -> Column {
    fn all<'a, T: FromStr>(cells: impl Iterator<Item = &'a str>) -> Option<Vec<Option<T>>> {
        cells
            .map(|c| {
                if c.is_empty() {
                    Some(None)
                } else {
                    c.parse().ok().map(Some)
                }
            })
            .collect()
    }
    if cells.clone().any(|c| !c.is_empty()) {
        if let Some(v) = all(cells.clone()) {
            return Column::Int64(v);
        }
        if let Some(v) = all(cells.clone()) {
            return Column::Float64(v);
        }
        if let Some(v) = all(cells.clone()) {
            return Column::Bool(v);
        }
    }
    Column::Utf8(
        cells
            .map(|c| (!c.is_empty()).then(|| c.to_owned()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    #[test]
    fn parse_simple_csv() {
        let t = read_csv_str("t", "id,name,score\n1,Jack,3.5\n2,Sam,4.0\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.schema().field("id").unwrap().dtype, DataType::Int64);
        assert_eq!(t.schema().field("name").unwrap().dtype, DataType::Utf8);
        assert_eq!(t.schema().field("score").unwrap().dtype, DataType::Float64);
        assert_eq!(t.value(0, "name").unwrap(), "Jack".into());
    }

    #[test]
    fn empty_cells_become_null() {
        let t = read_csv_str("t", "a,b\n1,\n,2\n").unwrap();
        assert_eq!(t.value(0, "b").unwrap(), Value::Null);
        assert_eq!(t.value(1, "a").unwrap(), Value::Null);
    }

    #[test]
    fn type_promotion_int_to_float_to_string() {
        let t = read_csv_str("t", "x\n1\n2.5\n").unwrap();
        assert_eq!(t.schema().field("x").unwrap().dtype, DataType::Float64);
        let t = read_csv_str("t", "x\n1\nhello\n").unwrap();
        assert_eq!(t.schema().field("x").unwrap().dtype, DataType::Utf8);
    }

    #[test]
    fn bool_inference() {
        let t = read_csv_str("t", "flag\ntrue\nfalse\n").unwrap();
        assert_eq!(t.schema().field("flag").unwrap().dtype, DataType::Bool);
        assert_eq!(t.value(0, "flag").unwrap(), Value::Bool(true));
    }

    #[test]
    fn quoted_fields() {
        let t = read_csv_str("t", "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.value(0, "a").unwrap(), "x,y".into());
        assert_eq!(t.value(0, "b").unwrap(), "he said \"hi\"".into());
    }

    #[test]
    fn quoted_newline() {
        let t = read_csv_str("t", "a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, "a").unwrap(), "line1\nline2".into());
    }

    #[test]
    fn crlf_tolerated() {
        let t = read_csv_str("t", "a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, "b").unwrap(), 2.into());
    }

    #[test]
    fn leading_byte_order_mark_is_not_part_of_the_header() {
        let t = read_csv_str("t", "\u{feff}id,v\n1,2\n").unwrap();
        assert_eq!(t.schema().names(), ["id", "v"]);
        assert_eq!(t.value(0, "id").unwrap(), 1.into());
        // Only one mark, and only at the very start of the input, is
        // stripped: a second one, or one in a later field, is data.
        let t = read_csv_str("t", "\u{feff}\u{feff}id,v\nx,\u{feff}y\n").unwrap();
        assert_eq!(t.schema().names(), ["\u{feff}id", "v"]);
        assert_eq!(t.value(0, "v").unwrap(), "\u{feff}y".into());
        assert!(read_csv_str("t", "\u{feff}").is_err());
    }

    #[test]
    fn missing_trailing_newline() {
        let t = read_csv_str("t", "a\n1").unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(read_csv_str("t", "a,b\n1\n").is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(read_csv_str("t", "a\n\"oops\n").is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(read_csv_str("t", "").is_err());
    }

    #[test]
    fn roundtrip_through_string() {
        let text = "id,name\n1,Jack\n2,\"Sam, Jr.\"\n";
        let t = read_csv_str("t", text).unwrap();
        let back = to_csv_string(&t);
        let t2 = read_csv_str("t", &back).unwrap();
        assert_eq!(t.num_rows(), t2.num_rows());
        assert_eq!(t.value(1, "name").unwrap(), t2.value(1, "name").unwrap());
    }

    #[test]
    fn roundtrip_keeps_carriage_returns_and_float_columns() {
        let text = "note,x,y\n\"a\rb\",1.0,-0.0\nc,2.0,1e300\n";
        let t = read_csv_str("t", text).unwrap();
        assert_eq!(t.value(0, "note").unwrap(), "a\rb".into());
        let back = read_csv_str("t", &to_csv_string(&t)).unwrap();
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.schema().field("x").unwrap().dtype, DataType::Float64);
        for row in 0..2 {
            assert_eq!(back.row(row), t.row(row));
        }
        let Value::Float(neg) = back.value(0, "y").unwrap() else {
            panic!("y is a float column");
        };
        assert!(neg == 0.0 && neg.is_sign_negative());
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("amalur_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("patients.csv");
        let t = read_csv_str("patients", "id,age\n1,20\n2,35\n").unwrap();
        write_csv(&t, &path).unwrap();
        let t2 = read_csv(&path).unwrap();
        assert_eq!(t2.name(), "patients");
        assert_eq!(t2.num_rows(), 2);
        assert_eq!(t2.value(1, "age").unwrap(), 35.into());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_null_column_is_utf8() {
        let t = read_csv_str("t", "a,b\n1,\n2,\n").unwrap();
        assert_eq!(t.schema().field("b").unwrap().dtype, DataType::Utf8);
    }

    #[test]
    fn only_fields_with_an_escaped_quote_are_copied() {
        let text = "id,note,score\n1,\"said \"\"a,b\"\"\nthen left\",2.5\n2,\"x,y\",\r\n";
        let records = parse_records(text).unwrap();
        assert_eq!(records.ends, vec![3, 6, 9]);
        let owned: Vec<bool> = records
            .fields
            .iter()
            .map(|f| matches!(f, Cow::Owned(_)))
            .collect();
        // Only the note of row 1 holds `""`; the quoted "x,y" and every
        // unquoted field, the CRLF-terminated empty one included, borrow.
        assert_eq!(
            owned,
            [false, false, false, false, true, false, false, false, false]
        );

        let t = read_csv_str("t", text).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, "id").unwrap(), 1.into());
        assert_eq!(
            t.value(0, "note").unwrap(),
            "said \"a,b\"\nthen left".into()
        );
        assert_eq!(t.value(0, "score").unwrap(), 2.5.into());
        assert_eq!(t.value(1, "note").unwrap(), "x,y".into());
        assert_eq!(t.value(1, "score").unwrap(), Value::Null);
    }
}
