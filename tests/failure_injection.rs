//! Failure injection: the system must reject malformed inputs with
//! proper errors — never panic, never produce silently-wrong results.

use amalur::integration::{integrate_pair, Tgd};
use amalur::prelude::*;
use amalur_data::TwoSourceSpec;

#[test]
fn malformed_tgds_are_rejected() {
    for bad in [
        "",
        "S1(a)",        // no head
        "-> T(a)",      // no body
        "S1 -> T(a)",   // body atom without parens
        "S1() -> T(a)", // empty variable list
        "S1(a) -> T(a", // unbalanced parens
        "(a) -> T(a)",  // missing relation name
    ] {
        assert!(Tgd::parse(bad).is_err(), "accepted malformed tgd: {bad:?}");
    }
}

#[test]
fn integration_with_missing_keys_or_no_matches() {
    let s1 = amalur::data::hospital::s1();
    let s2 = amalur::data::hospital::s2();
    // Missing key columns.
    for (l, r) in [("ghost", "n"), ("n", "ghost")] {
        let opts = IntegrationOptions::with_key(l, r);
        assert!(integrate_pair(&s1, &s2, ScenarioKind::InnerJoin, &opts).is_err());
    }
    // Disjoint schemas in a union: no shared features → clean error.
    let a = TableBuilder::new("A", &[("id", DataType::Int64), ("x", DataType::Float64)])
        .expect("schema")
        .row(vec![1.into(), 1.0.into()])
        .expect("row")
        .build();
    let b = TableBuilder::new("B", &[("id", DataType::Int64), ("z", DataType::Float64)])
        .expect("schema")
        .row(vec![2.into(), 2.0.into()])
        .expect("row")
        .build();
    let opts = IntegrationOptions::with_exact_key("id", "id");
    assert!(integrate_pair(&a, &b, ScenarioKind::Union, &opts).is_err());
}

#[test]
fn empty_tables_flow_through_without_panicking() {
    let empty1 = TableBuilder::new(
        "S1",
        &[
            ("m", DataType::Int64),
            ("n", DataType::Utf8),
            ("a", DataType::Float64),
        ],
    )
    .expect("schema")
    .build();
    let empty2 = TableBuilder::new(
        "S2",
        &[
            ("m", DataType::Int64),
            ("n", DataType::Utf8),
            ("o", DataType::Float64),
        ],
    )
    .expect("schema")
    .build();
    let opts = IntegrationOptions::with_exact_key("n", "n");
    let result = integrate_pair(&empty1, &empty2, ScenarioKind::FullOuterJoin, &opts)
        .expect("empty tables are valid silos");
    assert_eq!(result.metadata.target_rows, 0);
    let ft = FactorizedTable::from_integration(result).expect("consistent");
    assert_eq!(ft.materialize().shape(), (0, 3));
    // Ops on the empty table do not panic.
    let x = DenseMatrix::ones(3, 2);
    assert_eq!(ft.mul_right(&x).expect("valid").shape(), (0, 2));
    assert_eq!(ft.gram().shape(), (3, 3));
}

#[test]
fn nan_labels_are_rejected_by_training() {
    let spec = TwoSourceSpec {
        rows_s1: 20,
        cols_s1: 2,
        rows_s2: 5,
        cols_s2: 3,
        ..TwoSourceSpec::default()
    };
    let (md, data) = amalur::data::generate_two_source(&spec).expect("valid");
    let ft = FactorizedTable::new(md, data).expect("consistent");
    let mut y = DenseMatrix::zeros(20, 1);
    y.set(3, 0, f64::NAN);
    let mut model = LinearRegression::new(LinRegConfig::default());
    assert!(model.fit(&ft, &y).is_err());
    let mut logreg = LogisticRegression::new(LogRegConfig::default());
    assert!(logreg.fit(&ft, &y).is_err());
}

#[test]
fn singular_normal_equations_error_instead_of_garbage() {
    // Two identical columns → singular Gram matrix.
    let x =
        DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).expect("static");
    let y = DenseMatrix::column_vector(&[1.0, 2.0, 3.0]);
    let mut model = LinearRegression::new(LinRegConfig::default());
    assert!(model.fit_normal_equations(&x, &y).is_err());
    // Ridge regularization rescues it.
    let mut ridge = LinearRegression::new(LinRegConfig {
        l2: 1.0,
        ..LinRegConfig::default()
    });
    assert!(ridge.fit_normal_equations(&x, &y).is_ok());
}

#[test]
fn mismatched_operands_error_at_every_layer() {
    let spec = TwoSourceSpec {
        rows_s1: 10,
        cols_s1: 2,
        rows_s2: 5,
        cols_s2: 3,
        ..TwoSourceSpec::default()
    };
    let (md, data) = amalur::data::generate_two_source(&spec).expect("valid");
    let ft = FactorizedTable::new(md.clone(), data.clone()).expect("consistent");
    let (rows, cols) = ft.target_shape();
    // Wrong operand shapes.
    assert!(ft.mul_right(&DenseMatrix::zeros(cols + 1, 1)).is_err());
    assert!(ft.t_mul(&DenseMatrix::zeros(rows + 1, 1)).is_err());
    // Wrong data shapes at construction.
    let mut bad = data;
    bad[0] = DenseMatrix::zeros(9, 2);
    assert!(FactorizedTable::new(md, bad).is_err());
}

#[test]
fn corrupted_catalog_json_is_rejected() {
    for bad in ["", "{", "[1, 2, 3]", "{\"sources\": 42}"] {
        assert!(
            MetadataCatalog::from_json(bad).is_err(),
            "accepted corrupt catalog: {bad:?}"
        );
    }
}

#[test]
fn csv_malformations_are_reported() {
    use amalur::relational::csv::read_csv_str;
    assert!(read_csv_str("t", "").is_err());
    assert!(read_csv_str("t", "a,b\n1\n").is_err()); // ragged
    assert!(read_csv_str("t", "a\n\"unterminated\n").is_err());
}

#[test]
fn label_column_out_of_range_errors() {
    let spec = TwoSourceSpec {
        rows_s1: 10,
        cols_s1: 2,
        rows_s2: 5,
        cols_s2: 3,
        ..TwoSourceSpec::default()
    };
    let (md, data) = amalur::data::generate_two_source(&spec).expect("valid");
    let ft = FactorizedTable::new(md, data).expect("consistent");
    assert!(ft.split_label(99).is_err());
    assert!(ft.materialize_column(99).is_err());
    assert!(ft.drop_target_column(99).is_err());
}

#[test]
fn federated_with_inconsistent_parties_errors() {
    use amalur::federated::{train_vfl, VflConfig};
    let a = DenseMatrix::zeros(10, 2);
    let b = DenseMatrix::zeros(7, 2); // wrong row count
    let y = DenseMatrix::zeros(10, 1);
    assert!(train_vfl(&[a.clone(), b], &y, &VflConfig::default()).is_err());
    // Wrong label length.
    let c = DenseMatrix::zeros(10, 2);
    let short_y = DenseMatrix::zeros(9, 1);
    assert!(train_vfl(&[a, c], &short_y, &VflConfig::default()).is_err());
}
