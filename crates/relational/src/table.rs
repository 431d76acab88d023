//! Tables: named collections of typed columns.

use crate::{Column, DataType, Field, RelationalError, Result, Schema, Value};
use amalur_matrix::DenseMatrix;
use std::fmt;

/// A named, columnar relational table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Creates an empty table for `schema`.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        Self {
            name: name.into(),
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// Assembles a table from whole columns: one per field of `schema`,
    /// of that field's type, `num_rows` long.
    pub(crate) fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
        num_rows: usize,
    ) -> Self {
        debug_assert_eq!(schema.arity(), columns.len());
        debug_assert!(schema
            .fields()
            .iter()
            .zip(&columns)
            .all(|(f, c)| f.dtype == c.dtype() && c.len() == num_rows));
        Self {
            name: name.into(),
            schema,
            columns,
            num_rows,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the table (builder-style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.schema.arity()
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Appends a row of dynamic values.
    ///
    /// # Errors
    /// * [`RelationalError::ArityMismatch`] if the row length differs from
    ///   the schema arity.
    /// * [`RelationalError::TypeMismatch`] for inadmissible values.
    /// * [`RelationalError::UnexpectedNull`] for NULLs in non-nullable
    ///   columns.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                expected: self.schema.arity(),
                found: row.len(),
            });
        }
        for (field, value) in self.schema.fields().iter().zip(&row) {
            if value.is_null() && !field.nullable {
                return Err(RelationalError::UnexpectedNull {
                    column: field.name.clone(),
                    row: self.num_rows,
                });
            }
            if !field.dtype.accepts(value) {
                return Err(RelationalError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype.name(),
                    found: format!("{value:?}"),
                });
            }
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(value)?;
        }
        self.num_rows += 1;
        Ok(())
    }

    /// Reads row `i` as a vector of dynamic values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Reads the cell at (`row`, column `name`).
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        Ok(self.column_by_name(name)?.get(row))
    }

    /// Projects onto the named columns (in the given order).
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| self.schema.index_of(n).map(|i| self.columns[i].clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            name: self.name.clone(),
            schema,
            columns,
            num_rows: self.num_rows,
        })
    }

    /// Keeps only the rows for which `pred` returns true.
    pub fn filter(&self, pred: impl Fn(usize, &Table) -> bool) -> Table {
        let keep: Vec<usize> = (0..self.num_rows).filter(|&i| pred(i, self)).collect();
        self.gather_rows(&keep)
    }

    /// Builds a new table from the given row indices (in order, duplicates
    /// allowed).
    pub fn gather_rows(&self, rows: &[usize]) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
            num_rows: rows.len(),
        }
    }

    /// Converts the named numeric columns into a dense matrix
    /// (`num_rows × names.len()`), encoding NULLs as `null_value`.
    ///
    /// This is the `Sₖ → Dₖ` step of §III-B: "we transform the original
    /// tables to their matrix forms which only include the mapped columns".
    pub fn to_matrix(&self, names: &[&str], null_value: f64) -> Result<DenseMatrix> {
        let mut data = Vec::with_capacity(self.num_rows * names.len());
        let cols = names
            .iter()
            .map(|n| {
                let idx = self.schema.index_of(n)?;
                if !self.schema.fields()[idx].dtype.is_numeric() {
                    return Err(RelationalError::NonNumericColumn((*n).to_owned()));
                }
                Ok(&self.columns[idx])
            })
            .collect::<Result<Vec<_>>>()?;
        for i in 0..self.num_rows {
            for col in &cols {
                let v = col.get_f64(i)?;
                data.push(v.unwrap_or(null_value));
            }
        }
        DenseMatrix::from_vec(self.num_rows, names.len(), data)
            .map_err(|e| RelationalError::Parse(e.to_string()))
    }

    /// All numeric column names, in schema order.
    pub fn numeric_column_names(&self) -> Vec<&str> {
        self.schema
            .fields()
            .iter()
            .filter(|f| f.dtype.is_numeric())
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Overall NULL ratio across all cells (0.0 for empty tables).
    pub fn null_ratio(&self) -> f64 {
        let cells = self.num_rows * self.num_cols();
        if cells == 0 {
            return 0.0;
        }
        let nulls: usize = self.columns.iter().map(Column::null_count).sum();
        nulls as f64 / cells as f64
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}{}", self.name, self.schema)?;
        let show = self.num_rows.min(20);
        for i in 0..show {
            let row: Vec<String> = self.row(i).iter().map(ToString::to_string).collect();
            writeln!(f, "  {}", row.join(" | "))?;
        }
        if self.num_rows > show {
            writeln!(f, "  … {} more rows", self.num_rows - show)?;
        }
        Ok(())
    }
}

/// Convenience builder for assembling tables in tests and examples.
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Starts a builder with `(name, dtype)` column declarations
    /// (all nullable).
    pub fn new(name: impl Into<String>, cols: &[(&str, DataType)]) -> Result<Self> {
        let schema = Schema::new(
            cols.iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )?;
        Ok(Self {
            table: Table::empty(name, schema),
        })
    }

    /// Appends a row.
    pub fn row(mut self, values: Vec<Value>) -> Result<Self> {
        self.table.push_row(values)?;
        Ok(self)
    }

    /// Finishes and returns the table.
    pub fn build(self) -> Table {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patients() -> Table {
        TableBuilder::new(
            "patients",
            &[
                ("id", DataType::Int64),
                ("name", DataType::Utf8),
                ("age", DataType::Float64),
            ],
        )
        .unwrap()
        .row(vec![1.into(), "Jack".into(), 20.0.into()])
        .unwrap()
        .row(vec![2.into(), "Sam".into(), 35.0.into()])
        .unwrap()
        .row(vec![3.into(), Value::Null, Value::Null])
        .unwrap()
        .build()
    }

    #[test]
    fn push_and_read_rows() {
        let t = patients();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 3);
        assert_eq!(t.row(0), vec![1.into(), "Jack".into(), Value::Float(20.0)]);
        assert_eq!(t.value(1, "name").unwrap(), "Sam".into());
    }

    #[test]
    fn arity_validation() {
        let mut t = patients();
        let err = t.push_row(vec![4.into()]).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { .. }));
    }

    #[test]
    fn type_validation() {
        let mut t = patients();
        let err = t
            .push_row(vec!["oops".into(), "x".into(), 1.0.into()])
            .unwrap_err();
        assert!(matches!(err, RelationalError::TypeMismatch { .. }));
        // A failed push must not partially mutate the table.
        assert_eq!(t.num_rows(), 3);
        for c in 0..t.num_cols() {
            assert_eq!(t.column(c).len(), 3);
        }
    }

    #[test]
    fn not_null_enforced() {
        let schema = Schema::new(vec![Field::not_null("id", DataType::Int64)]).unwrap();
        let mut t = Table::empty("t", schema);
        let err = t.push_row(vec![Value::Null]).unwrap_err();
        assert!(matches!(err, RelationalError::UnexpectedNull { .. }));
    }

    #[test]
    fn int_into_float_column() {
        let mut t = Table::empty(
            "t",
            Schema::new(vec![Field::new("x", DataType::Float64)]).unwrap(),
        );
        t.push_row(vec![Value::Int(2)]).unwrap();
        assert_eq!(t.value(0, "x").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn projection() {
        let t = patients();
        let p = t.project(&["age", "id"]).unwrap();
        assert_eq!(p.schema().names(), vec!["age", "id"]);
        assert_eq!(p.row(0), vec![Value::Float(20.0), 1.into()]);
        assert!(t.project(&["missing"]).is_err());
    }

    #[test]
    fn filter_rows() {
        let t = patients();
        let adults = t.filter(|i, t| matches!(t.value(i, "age"), Ok(Value::Float(a)) if a >= 30.0));
        assert_eq!(adults.num_rows(), 1);
        assert_eq!(adults.value(0, "name").unwrap(), "Sam".into());
    }

    #[test]
    fn gather_rows_duplicates() {
        let t = patients();
        let g = t.gather_rows(&[0, 0, 2]);
        assert_eq!(g.num_rows(), 3);
        assert_eq!(g.value(1, "id").unwrap(), 1.into());
        assert_eq!(g.value(2, "id").unwrap(), 3.into());
    }

    #[test]
    fn to_matrix_with_null_encoding() {
        let t = patients();
        let m = t.to_matrix(&["id", "age"], 0.0).unwrap();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.get(0, 1), 20.0);
        assert_eq!(m.get(2, 1), 0.0); // NULL encoded
        assert!(t.to_matrix(&["name"], 0.0).is_err());
    }

    #[test]
    fn numeric_column_names() {
        let t = patients();
        assert_eq!(t.numeric_column_names(), vec!["id", "age"]);
    }

    #[test]
    fn null_ratio() {
        let t = patients();
        assert!((t.null_ratio() - 2.0 / 9.0).abs() < 1e-12);
        let empty = Table::empty("e", Schema::new(vec![]).unwrap());
        assert_eq!(empty.null_ratio(), 0.0);
    }

    #[test]
    fn display_does_not_panic() {
        let shown = patients().to_string();
        assert!(shown.contains("patients"));
        assert!(shown.contains("Jack"));
    }
}
