//! The matchers' work counters, pinned against what the inputs imply.
//!
//! One test in its own binary: the counters are process-wide statics, and
//! a second test running the matchers beside this one would move them.

use amalur_integration::{match_rows, match_schemas, mount_metrics, ErConfig, MatchingConfig};
use amalur_obs::MetricsRegistry;
use amalur_relational::{DataType, Table, TableBuilder};

fn people(name: &str, extra: (&str, DataType), names: &[&str]) -> Table {
    let mut b = TableBuilder::new(name, &[("n", DataType::Utf8), extra]).unwrap();
    for (i, n) in names.iter().enumerate() {
        let cell = match extra.1 {
            DataType::Utf8 => format!("v{i}").into(),
            _ => (i as f64).into(),
        };
        b = b.row(vec![(*n).into(), cell]).unwrap();
    }
    b.build()
}

#[test]
fn counters_account_for_every_pair_and_profile() {
    let reg = MetricsRegistry::new();
    mount_metrics(&reg);
    let read = |name: &str| reg.snapshot().counter(name).unwrap();
    for name in [
        "er.block_pairs",
        "er.bound_pruned",
        "er.scored",
        "er.accepted",
    ] {
        assert_eq!(read(&format!("integration.{name}")), 0);
    }

    // "Jane" matches exactly and leaves the fuzzy phase. Block j then
    // holds 3 left × 2 right rows, block r 1 × 1; Zed has no partner block.
    let l = people(
        "l",
        ("age", DataType::Float64),
        &[
            "Jane",
            "Johnathan Smith",
            "Jack",
            "jzzzzzzzzzzzzz",
            "Rose",
            "Zed",
        ],
    );
    let r = people(
        "r",
        ("city", DataType::Utf8),
        &["Jane", "Jonathan Smith", "Jill", "Rosa"],
    );
    let matches = match_rows(&l, &r, "n", "n", &ErConfig::default()).unwrap();
    assert_eq!(matches.len(), 3, "{matches:?}");

    let block_pairs = read("integration.er.block_pairs");
    let pruned = read("integration.er.bound_pruned");
    let scored = read("integration.er.scored");
    let accepted = read("integration.er.accepted");
    assert_eq!(block_pairs, 3 * 2 + 1);
    assert_eq!(block_pairs, pruned + scored);
    assert!(
        pruned >= 2,
        "the z-run shares one letter with either j-name"
    );
    assert_eq!(accepted, 2, "Johnathan/Jonathan and Rose/Rosa");
    assert!(scored >= accepted);

    // Exact-only runs decide no fuzzy pair at all.
    let exact = ErConfig {
        exact_only: true,
        ..ErConfig::default()
    };
    match_rows(&l, &r, "n", "n", &exact).unwrap();
    assert_eq!(read("integration.er.block_pairs"), block_pairs);

    // One profile per column of either table; of the 2 × 2 column pairs
    // only Utf8 × Utf8 (twice: n × n, n × city) is type-compatible.
    match_schemas(&l, &r, &MatchingConfig::default());
    assert_eq!(read("integration.schema.column_profiles"), 2 + 2);
    assert_eq!(read("integration.schema.pairs_scored"), 2);
}
