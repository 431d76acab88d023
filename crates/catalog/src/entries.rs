//! Catalog entry types.

use amalur_integration::{DiMetadata, ScenarioKind, Tgd};
use amalur_relational::Table;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Basic metadata of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldMeta {
    /// Column name.
    pub name: String,
    /// Data type name (`Int64`, `Float64`, `Utf8`, `Bool`).
    pub dtype: String,
    /// Whether NULLs are permitted.
    pub nullable: bool,
    /// Observed NULL ratio in the registered data.
    pub null_ratio: f64,
}

/// Basic metadata of a registered source (§II-A: "source table schema,
/// data types, integrity constraints, data provenance information such
/// as silo location").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceEntry {
    /// Source table name (catalog key).
    pub name: String,
    /// Where the silo lives (URI, department name, …).
    pub silo_location: String,
    /// Column descriptors.
    pub schema: Vec<FieldMeta>,
    /// Number of rows at registration time.
    pub num_rows: usize,
    /// Declared integrity constraints, free-form.
    pub integrity_constraints: Vec<String>,
}

impl SourceEntry {
    /// Extracts the catalog entry from a table.
    pub fn from_table(table: &Table, silo_location: impl Into<String>) -> Self {
        let schema = table
            .schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| FieldMeta {
                name: f.name.clone(),
                dtype: f.dtype.name().to_owned(),
                nullable: f.nullable,
                null_ratio: table.column(i).null_ratio(),
            })
            .collect();
        Self {
            name: table.name().to_owned(),
            silo_location: silo_location.into(),
            schema,
            num_rows: table.num_rows(),
            integrity_constraints: Vec::new(),
        }
    }
}

/// DI metadata of one integration task: which sources, which scenario,
/// the mediated schema, the compressed mapping/indicator vectors and the
/// defining tgds (§II-A: "column relationships from schema matching and
/// row matching from entity resolution").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiEntry {
    /// Integration id (catalog key).
    pub id: String,
    /// Scenario name (`full outer join`, `inner join`, …).
    pub scenario: String,
    /// Participating source names, base table first.
    pub sources: Vec<String>,
    /// Mediated schema columns.
    pub target_columns: Vec<String>,
    /// Target row count.
    pub target_rows: usize,
    /// Per-source compressed mapping vectors `CMₖ`.
    pub mappings: Vec<Vec<i64>>,
    /// Per-source compressed indicator vectors `CIₖ`.
    pub indicators: Vec<Vec<i64>>,
    /// Per-source redundant-cell counts (`Rₖ` zero counts).
    pub redundant_cells: Vec<usize>,
    /// The schema mappings in the paper's textual tgd notation.
    pub tgds: Vec<String>,
}

impl DiEntry {
    /// Builds the entry from planner output.
    pub fn from_metadata(
        id: impl Into<String>,
        scenario: ScenarioKind,
        metadata: &DiMetadata,
        tgds: &[Tgd],
    ) -> Self {
        Self {
            id: id.into(),
            scenario: scenario.to_string(),
            sources: metadata.sources.iter().map(|s| s.name.clone()).collect(),
            target_columns: metadata.target_columns.clone(),
            target_rows: metadata.target_rows,
            mappings: metadata
                .sources
                .iter()
                .map(|s| s.mapping.compressed().to_vec())
                .collect(),
            indicators: metadata
                .sources
                .iter()
                .map(|s| s.indicator.compressed().to_vec())
                .collect(),
            redundant_cells: metadata
                .sources
                .iter()
                .map(|s| s.redundancy().zero_count())
                .collect(),
            tgds: tgds.iter().map(ToString::to_string).collect(),
        }
    }
}

/// Model metadata (§II-A: "model execution environment, configurations
/// (e.g., hyper-parameters), input/output, evaluation performance").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelEntry {
    /// Model name (catalog key).
    pub name: String,
    /// Model family (`linear_regression`, `logistic_regression`, …).
    pub model_type: String,
    /// Execution environment descriptor (e.g. `amalur-native`).
    pub environment: String,
    /// Execution strategy used (`factorized`, `materialized`, `federated`).
    pub strategy: String,
    /// Hyper-parameters (rendered as strings for uniformity).
    pub hyperparameters: BTreeMap<String, String>,
    /// Evaluation metrics (accuracy, mse, …).
    pub metrics: BTreeMap<String, f64>,
    /// Lineage: ids of the datasets/integrations this model trained on.
    pub trained_on: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalur_relational::{DataType, TableBuilder, Value};

    #[test]
    fn source_entry_from_table() {
        let t = TableBuilder::new(
            "patients",
            &[("id", DataType::Int64), ("name", DataType::Utf8)],
        )
        .unwrap()
        .row(vec![1.into(), Value::Null])
        .unwrap()
        .build();
        let e = SourceEntry::from_table(&t, "er-department");
        assert_eq!(e.name, "patients");
        assert_eq!(e.silo_location, "er-department");
        assert_eq!(e.num_rows, 1);
        assert_eq!(e.schema.len(), 2);
        assert_eq!(e.schema[0].dtype, "Int64");
        assert_eq!(e.schema[1].null_ratio, 1.0);
    }

    #[test]
    fn source_entry_json_roundtrip() {
        let t = TableBuilder::new("t", &[("x", DataType::Float64)])
            .unwrap()
            .build();
        let e = SourceEntry::from_table(&t, "lab");
        let json = serde_json::to_string(&e).unwrap();
        let back: SourceEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn model_entry_json_roundtrip() {
        let mut hp = BTreeMap::new();
        hp.insert("learning_rate".to_owned(), "0.1".to_owned());
        let mut metrics = BTreeMap::new();
        metrics.insert("accuracy".to_owned(), 0.93);
        let e = ModelEntry {
            name: "mortality-clf".into(),
            model_type: "logistic_regression".into(),
            environment: "amalur-native".into(),
            strategy: "factorized".into(),
            hyperparameters: hp,
            metrics,
            trained_on: vec!["hospital-join".into()],
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: ModelEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
