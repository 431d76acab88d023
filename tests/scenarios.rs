//! Table I scenarios: for every dataset relationship (full outer join,
//! inner join, left join, union) the factorized pipeline must agree with
//! the traditional relational materialization of Figure 2 — and with
//! itself across rewrite strategies.

use amalur::factorize::reference;
use amalur::prelude::*;
use amalur_integration::{integrate_pair, materialize_relationally};
use rand::SeedableRng;

const SCENARIOS: [ScenarioKind; 4] = [
    ScenarioKind::FullOuterJoin,
    ScenarioKind::InnerJoin,
    ScenarioKind::LeftJoin,
    ScenarioKind::Union,
];

fn opts() -> IntegrationOptions {
    IntegrationOptions::with_exact_key("n", "n")
}

/// Matrix assembly must equal the relational (join-based) materialization
/// for every scenario — matrices and joins are two routes to the same T.
#[test]
fn matrix_assembly_equals_relational_materialization() {
    let s1 = amalur::data::hospital::s1();
    let s2 = amalur::data::hospital::s2();
    for kind in SCENARIOS {
        let result = integrate_pair(&s1, &s2, kind, &opts()).expect("integrates");
        let target_columns = result.metadata.target_columns.clone();
        let ft = FactorizedTable::from_integration(result).expect("consistent");
        let via_matrices = ft.materialize();

        let via_joins = materialize_relationally(&s1, &s2, kind, &opts(), &target_columns)
            .expect("relational path");
        let refs: Vec<&str> = target_columns.iter().map(String::as_str).collect();
        let via_joins_matrix = via_joins.to_matrix(&refs, 0.0).expect("numeric target");

        assert_eq!(
            via_matrices.shape(),
            via_joins_matrix.shape(),
            "{kind}: shape mismatch"
        );
        assert!(
            via_matrices.approx_eq(&via_joins_matrix, 1e-9),
            "{kind}: content mismatch\nmatrices: {via_matrices:?}\njoins: {via_joins_matrix:?}"
        );
    }
}

/// Factorized LMM / transpose-LMM agree with the materialized product in
/// every scenario and for every applicable strategy.
#[test]
fn factorized_ops_agree_across_scenarios() {
    let s1 = amalur::data::hospital::s1();
    let s2 = amalur::data::hospital::s2();
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    for kind in SCENARIOS {
        let result = integrate_pair(&s1, &s2, kind, &opts()).expect("integrates");
        let ft = FactorizedTable::from_integration(result).expect("consistent");
        let t = ft.materialize();
        let (rows, cols) = ft.target_shape();
        let x = DenseMatrix::random_uniform(cols, 3, -1.0, 1.0, &mut rng);
        let y = DenseMatrix::random_uniform(rows, 2, -1.0, 1.0, &mut rng);

        let ref_lmm = t.matmul(&x).expect("shapes");
        let ref_tlmm = t.transpose().matmul(&y).expect("shapes");
        let lmms = [
            ("compressed", ft.mul_right(&x)),
            ("equation (2)", reference::equation2_lmm(&ft, &x)),
        ];
        for (rule, got) in lmms {
            assert!(
                got.expect("shapes").approx_eq(&ref_lmm, 1e-9),
                "{kind}/{rule}: LMM mismatch"
            );
        }
        let transposes = [
            ("compressed", ft.t_mul(&y)),
            ("equation (2)", reference::equation2_lmm_transpose(&ft, &y)),
        ];
        for (rule, got) in transposes {
            assert!(
                got.expect("shapes").approx_eq(&ref_tlmm, 1e-9),
                "{kind}/{rule}: TᵀX mismatch"
            );
        }
        assert!(
            ft.gram().approx_eq(&t.gram(), 1e-9),
            "{kind}: gram mismatch"
        );
        for (a, b) in ft.col_sums().iter().zip(t.col_sums()) {
            assert!((a - b).abs() < 1e-9, "{kind}: col_sums mismatch");
        }
    }
}

/// Expected target shapes per scenario on the running example.
#[test]
fn scenario_shapes_match_the_paper() {
    let s1 = amalur::data::hospital::s1();
    let s2 = amalur::data::hospital::s2();
    let expect = [
        (ScenarioKind::FullOuterJoin, 6, 4), // all six patients
        (ScenarioKind::InnerJoin, 1, 4),     // only Jane
        (ScenarioKind::LeftJoin, 4, 4),      // S1's four patients
        (ScenarioKind::Union, 7, 2),         // stacked rows over (m, a)
    ];
    for (kind, rows, cols) in expect {
        let result = integrate_pair(&s1, &s2, kind, &opts()).expect("integrates");
        assert_eq!(
            (result.metadata.target_rows, result.metadata.target_cols()),
            (rows, cols),
            "{kind}"
        );
    }
}

/// Per Table I: which tgd sets define which scenario.
#[test]
fn tgd_sets_follow_table1() {
    let s1 = amalur::data::hospital::s1();
    let s2 = amalur::data::hospital::s2();
    let expect = [
        (ScenarioKind::FullOuterJoin, 3), // m1, m2, m3
        (ScenarioKind::InnerJoin, 1),     // m1
        (ScenarioKind::LeftJoin, 2),      // m1, m2
        (ScenarioKind::Union, 2),         // m2, m3
    ];
    for (kind, n_tgds) in expect {
        let result = integrate_pair(&s1, &s2, kind, &opts()).expect("integrates");
        assert_eq!(result.tgds.len(), n_tgds, "{kind}");
    }
    // Union tgds have single-atom bodies (no join).
    let union = integrate_pair(&s1, &s2, ScenarioKind::Union, &opts()).expect("integrates");
    assert!(union.tgds.iter().all(|t| t.body.len() == 1));
}

/// Example IV.1's pruning logic: an inner join of 1:1-matched sources
/// produces a target with no more redundancy than the sources — the
/// easy "materialize" case, detectable from the tgds (full tgd) and the
/// metadata (no fan-out).
#[test]
fn example_iv1_inner_join_has_no_target_redundancy() {
    let s1 = amalur::data::hospital::s1();
    let s2 = amalur::data::hospital::s2();
    let result = integrate_pair(&s1, &s2, ScenarioKind::InnerJoin, &opts()).expect("integrates");
    assert!(result.tgds[0].is_full());
    let features = amalur::cost::CostFeatures::from_metadata(&result.metadata);
    assert!(!features.has_target_redundancy());
    assert!(features.expansion_ratio() < 1.0);
}

/// ML over each scenario: training factorized equals training
/// materialized regardless of the dataset relationship.
#[test]
fn training_agrees_across_scenarios() {
    let (er, pulm) = amalur::data::hospital::scaled_silos(400, 300, 200, 23);
    for kind in SCENARIOS {
        let result = integrate_pair(&er, &pulm, kind, &opts()).expect("integrates");
        let ft = FactorizedTable::from_integration(result).expect("consistent");
        let (features, y) = ft.split_label(0).expect("label col 0 = m");
        let config = LinRegConfig {
            epochs: 40,
            learning_rate: 1e-5,
            l2: 0.1,
            tolerance: 0.0,
        };
        let mut fact = LinearRegression::new(config.clone());
        fact.fit(&features, &y).expect("factorized trains");
        let mut mat = LinearRegression::new(config);
        mat.fit(&features.materialize(), &y)
            .expect("materialized trains");
        assert!(
            fact.coefficients()
                .expect("fitted")
                .approx_eq(mat.coefficients().expect("fitted"), 1e-9),
            "{kind}: coefficients diverge"
        );
    }
}
