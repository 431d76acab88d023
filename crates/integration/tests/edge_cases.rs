//! Degenerate-input behavior of the integration planners — never panics.
//! Empty tables are valid silos for `integrate_pair` and `integrate_star`
//! alike (they flow through as possibly-zero-row scenarios, matching the
//! failure-injection suite), while genuine matching failures — missing
//! join keys, all-NULL or disjoint join columns under an inner join, a
//! union without shared features — come back as typed
//! [`IntegrationError`]s.

use amalur_integration::{
    integrate_pair, integrate_star, IntegrationError, IntegrationOptions, IntegrationResult,
    ScenarioKind, StarKind,
};
use amalur_relational::{DataType, Table, TableBuilder, Value};

fn empty(name: &str) -> Table {
    TableBuilder::new(name, &[("id", DataType::Int64), ("x", DataType::Float64)])
        .unwrap()
        .build()
}

fn small(name: &str, col: &str) -> Table {
    TableBuilder::new(name, &[("id", DataType::Int64), (col, DataType::Float64)])
        .unwrap()
        .row(vec![1.into(), 2.0.into()])
        .unwrap()
        .row(vec![2.into(), 3.0.into()])
        .unwrap()
        .build()
}

/// Two rows whose join key is entirely NULL.
fn null_keyed(name: &str) -> Table {
    TableBuilder::new(name, &[("id", DataType::Int64), ("x", DataType::Float64)])
        .unwrap()
        .row(vec![Value::Null, 1.0.into()])
        .unwrap()
        .row(vec![Value::Null, 2.0.into()])
        .unwrap()
        .build()
}

fn opts() -> IntegrationOptions {
    IntegrationOptions::with_exact_key("id", "id")
}

/// One planner over a left (base) and a right (sole satellite) table.
#[derive(Debug, Clone, Copy)]
enum Planner {
    Pair(ScenarioKind),
    Star(StarKind),
}

impl Planner {
    fn run(
        self,
        l: &Table,
        r: &Table,
        opts: &IntegrationOptions,
    ) -> Result<IntegrationResult, IntegrationError> {
        match self {
            Planner::Pair(kind) => integrate_pair(l, r, kind, opts),
            Planner::Star(kind) => integrate_star(l, &[r], kind, opts),
        }
    }
}

/// The columns of the table of cases below.
const PLANNERS: [Planner; 6] = [
    Planner::Pair(ScenarioKind::FullOuterJoin),
    Planner::Pair(ScenarioKind::InnerJoin),
    Planner::Pair(ScenarioKind::LeftJoin),
    Planner::Pair(ScenarioKind::Union),
    Planner::Star(StarKind::Left),
    Planner::Star(StarKind::Inner),
];

/// Asserts that every planner integrates `l` and `r` into the given
/// number of target rows (one entry per [`PLANNERS`] column).
fn assert_target_rows(l: &Table, r: &Table, rows: [usize; 6]) {
    for (planner, rows) in PLANNERS.into_iter().zip(rows) {
        let result = planner
            .run(l, r, &opts())
            .unwrap_or_else(|e| panic!("{planner:?}: must integrate, got {e}"));
        assert_eq!(result.metadata.target_rows, rows, "{planner:?}");
    }
}

// The table of cases: target rows per planner, in `PLANNERS` order —
// pair full outer, inner, left, union; star left, inner.

#[test]
fn empty_left_table_flows_through_every_kind() {
    // Rows surviving an empty left source: full outer keeps the right
    // side, inner and left alignment shrink to a valid zero-row target,
    // and union stacks the (zero) left rows on the right ones.
    assert_target_rows(&empty("E"), &small("R", "x"), [2, 0, 0, 2, 0, 0]);
}

#[test]
fn empty_right_table_flows_through_every_kind() {
    assert_target_rows(&small("L", "x"), &empty("E"), [2, 0, 2, 2, 2, 0]);
}

#[test]
fn two_empty_tables_yield_a_zero_row_scenario_not_an_error() {
    // Pinned by the failure-injection suite: silos that have not
    // contributed data yet are still valid integration partners.
    assert_target_rows(&empty("E1"), &empty("E2"), [0; 6]);
}

#[test]
fn all_null_join_column_outer_kinds_still_integrate() {
    // NULL matches nothing, so the outer joins degrade gracefully to
    // disjoint row sets — still a valid scenario, not an error.
    let (l, r) = (null_keyed("L"), small("R", "y"));
    for (planner, rows) in [
        (Planner::Pair(ScenarioKind::FullOuterJoin), 4),
        (Planner::Pair(ScenarioKind::LeftJoin), 2),
        (Planner::Star(StarKind::Left), 2),
    ] {
        let result = planner.run(&l, &r, &opts()).unwrap();
        assert_eq!(result.metadata.target_rows, rows, "{planner:?}");
    }
}

#[test]
fn missing_join_key_is_unknown_column_on_the_right_side_too() {
    let l = small("L", "x");
    let r = small("R", "y");
    for planner in PLANNERS {
        let bad_left = IntegrationOptions::with_exact_key("nope", "id");
        assert_eq!(
            planner.run(&l, &r, &bad_left).unwrap_err(),
            IntegrationError::UnknownColumn("nope".to_owned()),
            "{planner:?}"
        );
        let bad_right = IntegrationOptions::with_exact_key("id", "absent");
        assert_eq!(
            planner.run(&l, &r, &bad_right).unwrap_err(),
            IntegrationError::UnknownColumn("absent".to_owned()),
            "{planner:?}"
        );
    }
}

/// The inner planners over two tables that both have rows.
const INNER: [Planner; 2] = [
    Planner::Pair(ScenarioKind::InnerJoin),
    Planner::Star(StarKind::Inner),
];

#[test]
fn all_null_join_column_inner_join_is_no_matches_not_a_zero_row_scenario() {
    for planner in INNER {
        match planner.run(&null_keyed("L"), &small("R", "y"), &opts()) {
            Err(IntegrationError::NoMatches(msg)) => {
                assert!(msg.contains("no target rows"), "{planner:?}: {msg}");
            }
            other => panic!("{planner:?}: expected NoMatches, got {other:?}"),
        }
    }
}

#[test]
fn disjoint_keys_inner_join_is_no_matches() {
    let l = TableBuilder::new("L", &[("id", DataType::Int64), ("x", DataType::Float64)])
        .unwrap()
        .row(vec![100.into(), 1.0.into()])
        .unwrap()
        .build();
    for planner in INNER {
        let err = planner.run(&l, &small("R", "y"), &opts()).unwrap_err();
        assert!(
            matches!(err, IntegrationError::NoMatches(_)),
            "{planner:?}: {err:?}"
        );
    }
}

#[test]
fn union_without_shared_features_is_no_matches() {
    let a = small("A", "x");
    let b = small("B", "z");
    // Shared feature set is {x} ∩ {z} = ∅ (the key is not a feature).
    let err = integrate_pair(&a, &b, ScenarioKind::Union, &opts()).unwrap_err();
    assert_eq!(
        err,
        IntegrationError::NoMatches("no target columns for union of A and B".to_owned())
    );
}

#[test]
fn errors_render_human_readable_messages() {
    assert_eq!(
        IntegrationError::NoMatches("no target columns for union of A and B".to_owned())
            .to_string(),
        "no matches: no target columns for union of A and B"
    );
}
