//! Golden test: every value of Figure 4 (and the target table of
//! Figure 2d), reproduced through the public API from the raw Figure 2
//! tables.

use amalur::prelude::*;
use amalur_integration::integrate_pair;
use amalur_matrix::NO_MATCH;

fn running_example() -> FactorizedTable {
    let result = integrate_pair(
        &amalur::data::hospital::s1(),
        &amalur::data::hospital::s2(),
        ScenarioKind::FullOuterJoin,
        &IntegrationOptions::with_key("n", "n"),
    )
    .expect("the running example integrates");
    FactorizedTable::from_integration(result).expect("consistent metadata")
}

#[test]
fn target_schema_is_m_a_hr_o() {
    let ft = running_example();
    assert_eq!(
        ft.metadata().target_columns,
        vec!["m", "a", "hr", "o"],
        "T(m, a, hr, o) — the mediated schema of the paper"
    );
    assert_eq!(ft.target_shape(), (6, 4));
}

#[test]
fn figure4a_mapping_matrices() {
    let ft = running_example();
    let s1 = &ft.metadata().sources[0];
    let s2 = &ft.metadata().sources[1];
    // Compressed forms.
    assert_eq!(s1.mapping.compressed(), &[0, 1, 2, NO_MATCH]);
    assert_eq!(s2.mapping.compressed(), &[0, 1, NO_MATCH, 2]);
    // Full M1 (4×3) as printed in the figure.
    let m1 = s1.mapping.to_dense();
    assert_eq!(m1.row(0), &[1.0, 0.0, 0.0]);
    assert_eq!(m1.row(1), &[0.0, 1.0, 0.0]);
    assert_eq!(m1.row(2), &[0.0, 0.0, 1.0]);
    assert_eq!(m1.row(3), &[0.0, 0.0, 0.0]);
    // Full M2 (4×3).
    let m2 = s2.mapping.to_dense();
    assert_eq!(m2.row(0), &[1.0, 0.0, 0.0]);
    assert_eq!(m2.row(1), &[0.0, 1.0, 0.0]);
    assert_eq!(m2.row(2), &[0.0, 0.0, 0.0]);
    assert_eq!(m2.row(3), &[0.0, 0.0, 1.0]);
}

#[test]
fn figure4b_indicator_matrices_and_data() {
    let ft = running_example();
    let s1 = &ft.metadata().sources[0];
    let s2 = &ft.metadata().sources[1];
    // Target rows: Jack, Sam, Ruby, Jane, Rose, Castiel.
    assert_eq!(s1.indicator.compressed(), &[0, 1, 2, 3, NO_MATCH, NO_MATCH]);
    assert_eq!(
        s2.indicator.compressed(),
        &[NO_MATCH, NO_MATCH, NO_MATCH, 2, 0, 1]
    );
    // D1 = S1's (m, a, hr); D2 = S2's (m, a, o) — Figure 4b.
    let d1 = &ft.source_data()[0];
    assert_eq!(d1.row(0), &[0.0, 20.0, 60.0]);
    assert_eq!(d1.row(1), &[1.0, 35.0, 58.0]);
    assert_eq!(d1.row(2), &[0.0, 22.0, 65.0]);
    assert_eq!(d1.row(3), &[1.0, 37.0, 70.0]);
    let d2 = &ft.source_data()[1];
    assert_eq!(d2.row(0), &[1.0, 45.0, 95.0]);
    assert_eq!(d2.row(1), &[0.0, 20.0, 97.0]);
    assert_eq!(d2.row(2), &[1.0, 37.0, 92.0]);
}

#[test]
fn figure4c_redundancy_matrix() {
    let ft = running_example();
    let r2 = &ft.metadata().sources[1].redundancy();
    // Zeros exactly at Jane's (m, a) cells: row 3, cols 0 and 1.
    let dense = r2.to_dense();
    for i in 0..6 {
        for j in 0..4 {
            let expected = if i == 3 && (j == 0 || j == 1) {
                0.0
            } else {
                1.0
            };
            assert_eq!(dense.get(i, j), expected, "R2[{i},{j}]");
        }
    }
    // The base table's redundancy matrix is all ones.
    assert!(ft.metadata().sources[0].redundancy().is_all_ones());
}

#[test]
fn figure2d_materialized_target() {
    let ft = running_example();
    let t = ft.materialize();
    let expected = DenseMatrix::from_rows(&[
        vec![0.0, 20.0, 60.0, 0.0],  // Jack
        vec![1.0, 35.0, 58.0, 0.0],  // Sam
        vec![0.0, 22.0, 65.0, 0.0],  // Ruby
        vec![1.0, 37.0, 70.0, 92.0], // Jane (merged entity)
        vec![1.0, 45.0, 0.0, 95.0],  // Rose
        vec![0.0, 20.0, 0.0, 97.0],  // Castiel
    ])
    .expect("static expectation");
    assert!(t.approx_eq(&expected, 1e-12));
}

#[test]
fn figure4c_t1_plus_t2_double_counts_without_redundancy_mask() {
    // The paper's point: T1 + T2 ≠ T because Jane's (m, a) repeat.
    let ft = running_example();
    let t1 = ft.intermediate(0).expect("in range");
    let t2 = ft.intermediate(1).expect("in range");
    let naive = t1.add(&t2).expect("same shape");
    let t = ft.materialize();
    assert!(!naive.approx_eq(&t, 1e-9));
    // Specifically Jane's row: m doubles to 2, a doubles to 74.
    assert_eq!(naive.get(3, 0), 2.0);
    assert_eq!(naive.get(3, 1), 74.0);
    assert_eq!(t.get(3, 0), 1.0);
    assert_eq!(t.get(3, 1), 37.0);
}

#[test]
fn figure4c_lmm_rewrite_equals_materialized_product() {
    let ft = running_example();
    let t = ft.materialize();
    let x = DenseMatrix::from_rows(&[
        vec![6.0, 5.0],
        vec![3.0, 2.0],
        vec![2.0, 2.0],
        vec![4.0, 2.0],
    ])
    .expect("static operand");
    let reference = t.matmul(&x).expect("shapes agree");
    for strategy in [Strategy::Compressed, Strategy::Sparse] {
        let fact = ft.lmm(&x, strategy).expect("shapes agree");
        assert!(
            fact.approx_eq(&reference, 1e-9),
            "strategy {strategy} diverged from T·X"
        );
    }
    // Morpheus' rule (1) refuses: the sources overlap.
    assert!(ft.lmm(&x, Strategy::Morpheus).is_err());
}

#[test]
fn tgds_of_table1_example1() {
    let result = integrate_pair(
        &amalur::data::hospital::s1(),
        &amalur::data::hospital::s2(),
        ScenarioKind::FullOuterJoin,
        &IntegrationOptions::with_key("n", "n"),
    )
    .expect("integrates");
    assert_eq!(result.tgds.len(), 3);
    // m1 is the full join tgd; m2/m3 have existential variables o / hr.
    assert!(result.tgds[0].is_full());
    assert_eq!(
        result.tgds[1].existential_vars(),
        ["o"].into_iter().collect()
    );
    assert_eq!(
        result.tgds[2].existential_vars(),
        ["hr"].into_iter().collect()
    );
    // The join variables of m1 include the entity key and shared columns.
    let join_vars = result.tgds[0].join_vars();
    assert!(join_vars.contains("n"));
    assert!(join_vars.contains("m"));
    assert!(join_vars.contains("a"));
}
