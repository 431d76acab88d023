//! Every producer of DI metadata derives `Rₖ` by Definition III.4.
//!
//! The generator (every topology, with shared columns and partial
//! coverage), `integrate_pair` under all four Table I scenarios and
//! `integrate_star` under left and inner alignment all build their
//! metadata through `DiMetadata::push_source`. Whatever they build, each
//! `Rₖ` must equal a cell-by-cell oracle that reads only the `CIₖ` and
//! `CMₖ` vectors: cell `(i, j)` is zero iff source `k` covers target row
//! `i` and target column `j`, and some earlier source covers both too.

use amalur_gen::{generate, ScenarioSpec, Topology};
use amalur_integration::{
    integrate_pair, integrate_star, DiMetadata, IntegrationOptions, ScenarioKind, SourceMetadata,
    StarKind,
};
use amalur_matrix::NO_MATCH;
use amalur_relational::{DataType, Table, TableBuilder, Value};
use proptest::prelude::{prop_assert, proptest, ProptestConfig, TestCaseError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `true` when `s` covers target cell `(i, j)`.
fn covers(s: &SourceMetadata, i: usize, j: usize) -> bool {
    s.indicator.compressed()[i] != NO_MATCH && s.mapping.compressed()[j] != NO_MATCH
}

/// Checks every cell of every `Rₖ` of `md` against the oracle.
fn assert_derived(md: &DiMetadata, what: &str) -> Result<(), TestCaseError> {
    let (rows, cols) = (md.target_rows, md.target_cols());
    for (k, s) in md.sources.iter().enumerate() {
        let r = s.redundancy();
        prop_assert!(r.shape() == (rows, cols), "{what}: shape of R{k}");
        let mut zeros = 0;
        for i in 0..rows {
            for j in 0..cols {
                let zero = covers(s, i, j) && md.sources[..k].iter().any(|e| covers(e, i, j));
                zeros += usize::from(zero);
                let want = if zero { 0.0 } else { 1.0 };
                prop_assert!(r.get(i, j) == want, "{what}: R{k}[{i}, {j}] is not {want}");
            }
        }
        prop_assert!(r.zero_count() == zeros, "{what}: R{k} has {zeros} zeros");
        prop_assert!(r.is_all_ones() == (zeros == 0), "{what}: R{k} all ones");
    }
    Ok(())
}

/// A table keyed by an `Int64` `pid` drawn without repetition from
/// `0..24`, with one `Float64` column per name in `features`.
fn silo(name: &str, features: &[&str], rng: &mut StdRng) -> Table {
    let mut pool: Vec<i64> = (0..24).collect();
    let rows = rng.gen_range(1..pool.len());
    let mut cols = vec![("pid", DataType::Int64)];
    cols.extend(features.iter().map(|&f| (f, DataType::Float64)));
    let mut b = TableBuilder::new(name, &cols).unwrap();
    for _ in 0..rows {
        let pid = pool.swap_remove(rng.gen_range(0..pool.len()));
        let mut row = vec![Value::Int(pid)];
        row.extend(
            features
                .iter()
                .map(|_| Value::Float(rng.gen_range(-9.0..9.0))),
        );
        b = b.row(row).unwrap();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated scenarios of every topology.
    #[test]
    fn generated_redundancy_matches_the_cell_oracle(
        seed in 0u64..u64::MAX,
        topology in 0usize..4,
        width in 1usize..4,
        depth in 1usize..4,
        shared_cols in 0usize..3,
        coverage in 0usize..3,
    ) {
        let topology = match topology {
            0 => Topology::Star { satellites: width },
            1 => Topology::Snowflake { arms: width, depth },
            2 => Topology::Chain { hops: depth },
            _ => Topology::ManyToMany,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = ScenarioSpec {
            topology,
            base_rows: rng.gen_range(1..40),
            base_cols: rng.gen_range(1..6),
            dim_rows: rng.gen_range(1..9),
            dim_cols: rng.gen_range(1..5),
            skew: [0.0, 1.5][rng.gen_range(0..2usize)],
            shared_cols,
            coverage: [1.0, 0.6, 0.25][coverage],
            seed,
            ..ScenarioSpec::default()
        };
        let (md, _) = generate(&spec).unwrap();
        assert_derived(&md, &format!("{spec:?}"))?;
    }

    /// `integrate_pair` under every scenario, with a shared column.
    #[test]
    fn pair_redundancy_matches_the_cell_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let left = silo("left", &["a", "b"], &mut rng);
        let right = silo("right", &["a", "c"], &mut rng);
        let opts = IntegrationOptions::with_exact_key("pid", "pid");
        for kind in [
            ScenarioKind::FullOuterJoin,
            ScenarioKind::InnerJoin,
            ScenarioKind::LeftJoin,
            ScenarioKind::Union,
        ] {
            // An inner join that matched nothing is an error, not metadata.
            if let Ok(r) = integrate_pair(&left, &right, kind, &opts) {
                assert_derived(&r.metadata, &format!("{kind}, seed {seed}"))?;
            }
        }
    }

    /// `integrate_star` under left and inner alignment, with satellites
    /// that share columns with the base and with one another.
    #[test]
    fn star_redundancy_matches_the_cell_oracle(seed in 0u64..u64::MAX, satellites in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = silo("base", &["a", "b"], &mut rng);
        let sats: Vec<Table> = (0..satellites)
            .map(|k| {
                // One of the base's columns, the column `c` every
                // satellite has, and on odd satellites a column of its own.
                let shared = ["a", "b"][rng.gen_range(0..2usize)];
                let own = format!("f{k}");
                silo(&format!("s{k}"), &[shared, "c", &own][..2 + k % 2], &mut rng)
            })
            .collect();
        let refs: Vec<&Table> = sats.iter().collect();
        let opts = IntegrationOptions::with_exact_key("pid", "pid");
        for kind in [StarKind::Left, StarKind::Inner] {
            if let Ok(r) = integrate_star(&base, &refs, kind, &opts) {
                assert_derived(&r.metadata, &format!("{kind:?}, seed {seed}"))?;
            }
        }
    }
}
