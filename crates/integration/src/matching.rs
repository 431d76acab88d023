//! Schema matching: discovering column correspondences between sources.
//!
//! The metadata catalog of §II-A stores "column relationships from schema
//! matching". This module produces those relationships from the tables
//! themselves, combining three classic matcher families (cf. Rahm &
//! Bernstein's survey, cited as \[4\] in the paper):
//!
//! 1. **Name matchers** — exact and normalized (case/punctuation-folded)
//!    column-name equality.
//! 2. **Type compatibility** — candidates must have unifiable data types.
//! 3. **Instance (value-overlap) matchers** — Jaccard similarity of the
//!    distinct value sets of two columns.
//!
//! The combined score is a weighted sum; a greedy stable 1:1 assignment
//! above a threshold yields the final correspondences.

use crate::metrics;
use amalur_relational::{DataType, Table};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A scored correspondence between a column of the left table and a
/// column of the right table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMatch {
    /// Column name in the left table.
    pub left: String,
    /// Column name in the right table.
    pub right: String,
    /// Combined confidence in `[0, 1]`.
    pub score: f64,
}

/// Weights and threshold for [`match_schemas`].
#[derive(Debug, Clone)]
pub struct MatchingConfig {
    /// Weight of the name-similarity component.
    pub name_weight: f64,
    /// Weight of the value-overlap component.
    pub value_weight: f64,
    /// Minimum combined score for a correspondence to be emitted.
    pub threshold: f64,
    /// Maximum number of distinct values sampled per column for the
    /// instance matcher (bounds cost on large tables).
    pub value_sample: usize,
}

impl Default for MatchingConfig {
    fn default() -> Self {
        Self {
            name_weight: 0.6,
            value_weight: 0.4,
            threshold: 0.5,
            value_sample: 1000,
        }
    }
}

/// Normalizes a column name for comparison: lowercase alphanumerics only.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_alphanumeric())
        .flat_map(char::to_lowercase)
        .collect()
}

/// Name similarity in `[0, 1]`: 1.0 for exact, 0.9 for normalized-equal,
/// otherwise a bigram Dice coefficient over the normalized names.
pub(crate) fn name_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let (na, nb) = (normalize(a), normalize(b));
    if !na.is_empty() && na == nb {
        return 0.9;
    }
    dice_bigrams(&na, &nb) * 0.8
}

/// Dice coefficient over character bigrams.
fn dice_bigrams(a: &str, b: &str) -> f64 {
    let bigrams = |s: &str| -> Vec<(char, char)> {
        let chars: Vec<char> = s.chars().collect();
        chars.windows(2).map(|w| (w[0], w[1])).collect()
    };
    let ba = bigrams(a);
    let bb = bigrams(b);
    if ba.is_empty() || bb.is_empty() {
        return if a == b && !a.is_empty() { 1.0 } else { 0.0 };
    }
    let set_a: BTreeSet<(char, char)> = ba.iter().copied().collect();
    let inter = bb.iter().filter(|g| set_a.contains(g)).count();
    2.0 * inter as f64 / (ba.len() + bb.len()) as f64
}

/// `true` when two column types can correspond (numeric types unify).
pub(crate) fn types_compatible(a: DataType, b: DataType) -> bool {
    a == b || (a.is_numeric() && b.is_numeric())
}

/// A table with the value profile of each of its columns: the distinct
/// rendered non-NULL values among the first `value_sample` rows, sorted.
/// Built once per table, so a column costs one profile however many
/// column pairs it is scored in.
pub(crate) struct ProfiledTable<'a> {
    table: &'a Table,
    /// One profile per column, in schema order.
    values: Vec<Vec<String>>,
}

impl<'a> ProfiledTable<'a> {
    /// Profiles every column of `table` over its first
    /// `config.value_sample` rows.
    pub(crate) fn new(table: &'a Table, config: &MatchingConfig) -> Self {
        let rows = table.num_rows().min(config.value_sample);
        let values: Vec<Vec<String>> = (0..table.num_cols())
            .map(|c| {
                let col = table.column(c);
                let mut distinct: Vec<String> = (0..rows)
                    .map(|i| col.get(i))
                    .filter(|v| !v.is_null())
                    .map(|v| v.to_string())
                    .collect();
                distinct.sort_unstable();
                distinct.dedup();
                distinct
            })
            .collect();
        metrics::SCHEMA_COLUMN_PROFILES.add(values.len() as u64);
        Self { table, values }
    }
}

/// Jaccard similarity of two sorted, duplicate-free value profiles
/// (0.0 when either is empty).
fn jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Discovers 1:1 column correspondences between `left` and `right`.
///
/// Every type-compatible column pair is scored with
/// `name_weight · name_sim + value_weight · jaccard`; pairs are then
/// assigned greedily by descending score (stable 1:1 matching) and
/// returned if the score clears `config.threshold`.
pub fn match_schemas(left: &Table, right: &Table, config: &MatchingConfig) -> Vec<ColumnMatch> {
    match_profiled(
        &ProfiledTable::new(left, config),
        &ProfiledTable::new(right, config),
        config,
    )
}

/// [`match_schemas`] over tables profiled under the same `config`.
pub(crate) fn match_profiled(
    left: &ProfiledTable<'_>,
    right: &ProfiledTable<'_>,
    config: &MatchingConfig,
) -> Vec<ColumnMatch> {
    let mut candidates: Vec<ColumnMatch> = Vec::new();
    let mut pairs_scored = 0u64;
    for (lf, lvalues) in left.table.schema().fields().iter().zip(&left.values) {
        for (rf, rvalues) in right.table.schema().fields().iter().zip(&right.values) {
            if !types_compatible(lf.dtype, rf.dtype) {
                continue;
            }
            pairs_scored += 1;
            let name_s = name_similarity(&lf.name, &rf.name);
            let value_s = jaccard(lvalues, rvalues);
            let score = config.name_weight * name_s + config.value_weight * value_s;
            if score >= config.threshold {
                candidates.push(ColumnMatch {
                    left: lf.name.clone(),
                    right: rf.name.clone(),
                    score,
                });
            }
        }
    }
    metrics::SCHEMA_PAIRS_SCORED.add(pairs_scored);
    // Greedy 1:1 assignment by descending score; ties broken by name for
    // determinism.
    candidates.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| x.left.cmp(&y.left))
            .then_with(|| x.right.cmp(&y.right))
    });
    let mut used_left: BTreeSet<String> = BTreeSet::new();
    let mut used_right: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    for c in candidates {
        if used_left.contains(&c.left) || used_right.contains(&c.right) {
            continue;
        }
        used_left.insert(c.left.clone());
        used_right.insert(c.right.clone());
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use amalur_relational::{DataType, TableBuilder, Value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn er_table() -> Table {
        TableBuilder::new(
            "S1",
            &[
                ("mortality", DataType::Int64),
                ("name", DataType::Utf8),
                ("age", DataType::Float64),
                ("restingHR", DataType::Float64),
            ],
        )
        .unwrap()
        .row(vec![0.into(), "Jack".into(), 20.0.into(), 60.0.into()])
        .unwrap()
        .row(vec![1.into(), "Jane".into(), 37.0.into(), 70.0.into()])
        .unwrap()
        .build()
    }

    fn pulmonary_table() -> Table {
        TableBuilder::new(
            "S2",
            &[
                ("mortality", DataType::Int64),
                ("name", DataType::Utf8),
                ("age", DataType::Float64),
                ("oxygen", DataType::Float64),
            ],
        )
        .unwrap()
        .row(vec![1.into(), "Rose".into(), 45.0.into(), 95.0.into()])
        .unwrap()
        .row(vec![1.into(), "Jane".into(), 37.0.into(), 92.0.into()])
        .unwrap()
        .build()
    }

    #[test]
    fn exact_names_match() {
        let matches = match_schemas(&er_table(), &pulmonary_table(), &MatchingConfig::default());
        let pairs: Vec<(&str, &str)> = matches
            .iter()
            .map(|m| (m.left.as_str(), m.right.as_str()))
            .collect();
        assert!(pairs.contains(&("mortality", "mortality")));
        assert!(pairs.contains(&("name", "name")));
        assert!(pairs.contains(&("age", "age")));
        // restingHR and oxygen must NOT match each other.
        assert!(!pairs
            .iter()
            .any(|&(l, r)| l == "restingHR" && r == "oxygen"));
    }

    #[test]
    fn normalized_names_match() {
        let a = TableBuilder::new("a", &[("resting_hr", DataType::Float64)])
            .unwrap()
            .build();
        let b = TableBuilder::new("b", &[("RestingHR", DataType::Float64)])
            .unwrap()
            .build();
        let matches = match_schemas(&a, &b, &MatchingConfig::default());
        assert_eq!(matches.len(), 1);
        assert!(matches[0].score >= 0.5);
    }

    #[test]
    fn incompatible_types_never_match() {
        let a = TableBuilder::new("a", &[("x", DataType::Utf8)])
            .unwrap()
            .build();
        let b = TableBuilder::new("b", &[("x", DataType::Float64)])
            .unwrap()
            .build();
        assert!(match_schemas(&a, &b, &MatchingConfig::default()).is_empty());
    }

    #[test]
    fn numeric_types_unify() {
        let a = TableBuilder::new("a", &[("x", DataType::Int64)])
            .unwrap()
            .build();
        let b = TableBuilder::new("b", &[("x", DataType::Float64)])
            .unwrap()
            .build();
        assert_eq!(match_schemas(&a, &b, &MatchingConfig::default()).len(), 1);
    }

    #[test]
    fn value_overlap_helps_differently_named_columns() {
        let cfg = MatchingConfig {
            threshold: 0.3,
            ..MatchingConfig::default()
        };
        let a = TableBuilder::new("a", &[("patient", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .row(vec!["Jack".into()])
            .unwrap()
            .build();
        let b = TableBuilder::new("b", &[("person", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .row(vec!["Jack".into()])
            .unwrap()
            .build();
        let matches = match_schemas(&a, &b, &cfg);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].left, "patient");
    }

    #[test]
    fn greedy_assignment_is_one_to_one() {
        let a = TableBuilder::new("a", &[("x", DataType::Float64), ("x2", DataType::Float64)])
            .unwrap()
            .build();
        let b = TableBuilder::new("b", &[("x", DataType::Float64)])
            .unwrap()
            .build();
        let matches = match_schemas(&a, &b, &MatchingConfig::default());
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].left, "x"); // exact beats fuzzy
    }

    #[test]
    fn nulls_ignored_in_value_overlap() {
        let a = TableBuilder::new("a", &[("k", DataType::Utf8)])
            .unwrap()
            .row(vec![Value::Null])
            .unwrap()
            .build();
        let b = TableBuilder::new("b", &[("k", DataType::Utf8)])
            .unwrap()
            .row(vec![Value::Null])
            .unwrap()
            .build();
        // Only name evidence: 0.6 * 1.0 = 0.6 ≥ threshold.
        let matches = match_schemas(&a, &b, &MatchingConfig::default());
        assert_eq!(matches.len(), 1);
        assert!((matches[0].score - 0.6).abs() < 1e-9);
    }

    #[test]
    fn dice_bigrams_behaviour() {
        assert_eq!(dice_bigrams("night", "night"), 1.0);
        assert!(dice_bigrams("night", "nacht") > 0.0);
        assert_eq!(dice_bigrams("a", "b"), 0.0);
        assert_eq!(dice_bigrams("", ""), 0.0);
    }

    #[test]
    fn normalize_folds_case_and_punctuation() {
        assert_eq!(normalize("Resting_HR"), "restinghr");
        assert_eq!(normalize("date-diagnosed"), "datediagnosed");
    }

    /// A table of up to six columns of random type whose names come from
    /// a pool of near-duplicates and whose values come from small
    /// domains, so that names and value sets overlap across tables.
    fn random_table(rng: &mut StdRng, name: &str) -> Table {
        const NAMES: [&str; 10] = [
            "age",
            "Age",
            "patient_age",
            "name",
            "full_name",
            "hr",
            "resting_hr",
            "RestingHR",
            "flag",
            "x",
        ];
        let mut names = NAMES.to_vec();
        let mut cols = Vec::new();
        for _ in 0..rng.gen_range(1..7) {
            let dtype = [
                DataType::Int64,
                DataType::Float64,
                DataType::Utf8,
                DataType::Bool,
            ][rng.gen_range(0..4usize)];
            cols.push((names.swap_remove(rng.gen_range(0..names.len())), dtype));
        }
        let mut b = TableBuilder::new(name, &cols).unwrap();
        for _ in 0..rng.gen_range(0..40) {
            let row = cols
                .iter()
                .map(|&(_, dtype)| {
                    let v = rng.gen_range(0..12i64);
                    match dtype {
                        _ if v == 0 => Value::Null,
                        DataType::Int64 => Value::Int(v),
                        // Halves: some render like the ints, some do not.
                        DataType::Float64 => Value::Float(v as f64 / 2.0),
                        DataType::Utf8 => Value::Str(format!("v{}", v % 5)),
                        DataType::Bool => Value::Bool(v % 2 == 0),
                    }
                })
                .collect();
            b = b.row(row).unwrap();
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        #[test]
        fn match_schemas_equals_reference(
            seed in 0u64..u64::MAX,
            name_weight in 0.0f64..1.0,
            threshold in 0.0f64..0.8,
            value_sample in 0usize..50,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (l, r) = (random_table(&mut rng, "l"), random_table(&mut rng, "r"));
            let config = MatchingConfig {
                name_weight,
                value_weight: 1.0 - name_weight,
                threshold,
                value_sample,
            };
            let got = match_schemas(&l, &r, &config);
            let expected = reference::match_schemas(&l, &r, &config);
            prop_assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!((&g.left, &g.right), (&e.left, &e.right));
                prop_assert_eq!(g.score.to_bits(), e.score.to_bits());
            }
        }
    }

    #[test]
    fn profile_overlap_equals_per_pair_overlap() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let (l, r) = (random_table(&mut rng, "l"), random_table(&mut rng, "r"));
            let sample = rng.gen_range(0..50);
            let config = MatchingConfig {
                value_sample: sample,
                ..MatchingConfig::default()
            };
            let (lp, rp) = (
                ProfiledTable::new(&l, &config),
                ProfiledTable::new(&r, &config),
            );
            for (lf, lvalues) in l.schema().fields().iter().zip(&lp.values) {
                for (rf, rvalues) in r.schema().fields().iter().zip(&rp.values) {
                    let expected = reference::value_overlap(&l, &lf.name, &r, &rf.name, sample);
                    assert_eq!(jaccard(lvalues, rvalues).to_bits(), expected.to_bits());
                }
            }
        }
    }
}
