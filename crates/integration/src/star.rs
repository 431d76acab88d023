//! N-ary star integration: one base table joined with many augmenting
//! silos on a shared entity key.
//!
//! The drug-risk scenario of §I — features spread over clinics,
//! hospitals, pharmacies and laboratories — is not a two-table join but
//! a *star*: every silo aligns to the same patient population. The star
//! runs the planner of [`integrate_pair`](crate::integrate_pair) with `n`
//! satellites in place of one right table, so a one-satellite star and
//! the pair agree on every matrix:
//!
//! * **Left star** (supervised training: the base holds the labels):
//!   target rows = base rows; each satellite contributes columns where
//!   its entities match.
//! * **Inner star** (VFL: only fully-shared entities): target rows =
//!   base rows matched in *every* satellite.
//!
//! Column correspondences between each satellite and the base come from
//! [`IntegrationOptions::column_matches`] or schema matching, under the
//! rule of the [`scenario`](crate::scenario) module; every source that
//! feeds a target column after an earlier one is masked there by its
//! redundancy matrix — the same base-table precedence as §III-C.

use crate::scenario::{plan, IntegrationOptions, IntegrationResult, ScenarioKind};
use crate::Result;
use amalur_relational::Table;

/// The star variant: how satellite coverage restricts the target rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StarKind {
    /// All base rows survive (satellites contribute where matched).
    Left,
    /// Only base rows matched in every satellite survive.
    Inner,
}

/// Plans a star integration of `base` with `satellites` on the shared
/// key named in `opts` (the same key column name is used on every
/// satellite). Empty silos flow through as for
/// [`integrate_pair`](crate::integrate_pair).
///
/// # Errors
/// * [`IntegrationError::UnknownColumn`](crate::IntegrationError::UnknownColumn)
///   when the key is missing.
/// * [`IntegrationError::NoMatches`](crate::IntegrationError::NoMatches)
///   when every silo has rows and the target has no columns, or no rows
///   (an inner star whose entities appear in no satellite together).
pub fn integrate_star(
    base: &Table,
    satellites: &[&Table],
    kind: StarKind,
    opts: &IntegrationOptions,
) -> Result<IntegrationResult> {
    let kind = match kind {
        StarKind::Left => ScenarioKind::LeftJoin,
        StarKind::Inner => ScenarioKind::InnerJoin,
    };
    let plan = plan(base, satellites, kind, opts)?;
    Ok(IntegrationResult {
        kind,
        metadata: plan.metadata,
        source_data: plan.source_data,
        tgds: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::integrate_pair;
    use amalur_matrix::{DenseMatrix, NO_MATCH};
    use amalur_relational::{DataType, TableBuilder};

    fn base() -> Table {
        TableBuilder::new(
            "clinic",
            &[
                ("pid", DataType::Int64),
                ("label", DataType::Int64),
                ("age", DataType::Float64),
            ],
        )
        .unwrap()
        .row(vec![1.into(), 0.into(), 30.0.into()])
        .unwrap()
        .row(vec![2.into(), 1.into(), 40.0.into()])
        .unwrap()
        .row(vec![3.into(), 0.into(), 50.0.into()])
        .unwrap()
        .build()
    }

    fn sat_a() -> Table {
        TableBuilder::new(
            "lab",
            &[("pid", DataType::Int64), ("creat", DataType::Float64)],
        )
        .unwrap()
        .row(vec![2.into(), 1.2.into()])
        .unwrap()
        .row(vec![3.into(), 0.9.into()])
        .unwrap()
        .build()
    }

    fn sat_b() -> Table {
        TableBuilder::new(
            "pharmacy",
            &[
                ("pid", DataType::Int64),
                ("dose", DataType::Float64),
                ("age", DataType::Float64), // shared with the base
            ],
        )
        .unwrap()
        .row(vec![1.into(), 5.0.into(), 30.0.into()])
        .unwrap()
        .row(vec![3.into(), 7.0.into(), 50.0.into()])
        .unwrap()
        .build()
    }

    fn opts() -> IntegrationOptions {
        IntegrationOptions::with_exact_key("pid", "pid")
    }

    #[test]
    fn left_star_keeps_all_base_rows() {
        let (b, a, c) = (base(), sat_a(), sat_b());
        let r = integrate_star(&b, &[&a, &c], StarKind::Left, &opts()).unwrap();
        assert_eq!(r.metadata.target_rows, 3);
        assert_eq!(
            r.metadata.target_columns,
            vec!["label", "age", "creat", "dose"]
        );
        assert_eq!(r.metadata.sources.len(), 3);
        // Lab matched pids 2, 3 → base rows 1, 2.
        assert_eq!(
            r.metadata.sources[1].indicator.compressed(),
            &[NO_MATCH, 0, 1]
        );
        // Pharmacy matched pids 1, 3 → base rows 0, 2.
        assert_eq!(
            r.metadata.sources[2].indicator.compressed(),
            &[0, NO_MATCH, 1]
        );
        // Pharmacy's `age` is redundant with the base on its matched rows.
        assert!(r.metadata.sources[2].redundancy.zero_count() > 0);
    }

    #[test]
    fn inner_star_keeps_fully_matched_rows_only() {
        let (b, a, c) = (base(), sat_a(), sat_b());
        let r = integrate_star(&b, &[&a, &c], StarKind::Inner, &opts()).unwrap();
        // Only pid 3 appears in base, lab AND pharmacy.
        assert_eq!(r.metadata.target_rows, 1);
        assert_eq!(r.metadata.sources[0].indicator.compressed(), &[2]);
    }

    /// Hand-rolled `T = Σ Tₖ ∘ Rₖ` (the factorize crate owns the real
    /// implementation; integration cannot depend on it).
    fn assemble(r: &IntegrationResult) -> DenseMatrix {
        let md = &r.metadata;
        let mut t = DenseMatrix::zeros(md.target_rows, md.target_cols());
        for (s, d) in md.sources.iter().zip(&r.source_data) {
            for (i, &sr) in s.indicator.compressed().iter().enumerate() {
                if sr == NO_MATCH {
                    continue;
                }
                for (c, &sc) in s.mapping.compressed().iter().enumerate() {
                    if sc == NO_MATCH || s.redundancy.get(i, c) == 0.0 {
                        continue;
                    }
                    let v = t.get(i, c) + d.get(sr as usize, sc as usize);
                    t.set(i, c, v);
                }
            }
        }
        t
    }

    #[test]
    fn left_star_materializes_correctly() {
        let (b, a, c) = (base(), sat_a(), sat_b());
        let r = integrate_star(&b, &[&a, &c], StarKind::Left, &opts()).unwrap();
        let expected = DenseMatrix::from_rows(&[
            vec![0.0, 30.0, 0.0, 5.0], // pid 1: no lab
            vec![1.0, 40.0, 1.2, 0.0], // pid 2: no pharmacy
            vec![0.0, 50.0, 0.9, 7.0], // pid 3: everything
        ])
        .unwrap();
        assert!(assemble(&r).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn missing_keys_error() {
        let b = base();
        let a = sat_a();
        let bad = IntegrationOptions::with_exact_key("ghost", "pid");
        assert!(integrate_star(&b, &[&a], StarKind::Left, &bad).is_err());
        let bad = IntegrationOptions::with_exact_key("pid", "ghost");
        assert!(integrate_star(&b, &[&a], StarKind::Left, &bad).is_err());
    }

    #[test]
    fn inner_star_with_disjoint_satellites_errors() {
        let b = base();
        let empty_sat = TableBuilder::new(
            "empty",
            &[("pid", DataType::Int64), ("x", DataType::Float64)],
        )
        .unwrap()
        .row(vec![99.into(), 1.0.into()])
        .unwrap()
        .build();
        assert!(integrate_star(&b, &[&empty_sat], StarKind::Inner, &opts()).is_err());
    }

    /// A table keyed by `pid` of type `dtype`, its keys from the ER
    /// tests' typed pool, with one feature column `feat`.
    fn typed_silo(
        name: &str,
        feat: &str,
        dtype: DataType,
        rows: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Table {
        let keys = crate::er::tests::random_typed_keys(rng, dtype, rows);
        let mut b = TableBuilder::new(name, &[("pid", dtype), (feat, DataType::Float64)]).unwrap();
        for (i, key) in keys.into_iter().enumerate() {
            b = b.row(vec![key, (i as f64).into()]).unwrap();
        }
        b.build()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Every satellite's indicator vector is the one the reference
        /// matcher's pairs build, on typed keys of any mix, exact or fuzzy.
        #[test]
        fn star_indicators_equal_reference_matches(
            seed in 0u64..u64::MAX,
            satellites in 1usize..4,
            exact in 0usize..2,
        ) {
            use crate::er::tests::KEY_TYPES;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let silo = |name: &str, feat: &str, rng: &mut rand::rngs::StdRng| {
                let dtype = KEY_TYPES[rng.gen_range(0..KEY_TYPES.len())];
                let rows = rng.gen_range(1..30);
                typed_silo(name, feat, dtype, rows, rng)
            };
            let b = silo("base", "f0", &mut rng);
            let sats: Vec<Table> = (1..=satellites)
                .map(|k| silo(&format!("s{k}"), &format!("f{k}"), &mut rng))
                .collect();
            let mut opts = opts();
            opts.er.exact_only = exact == 1;
            let refs: Vec<&Table> = sats.iter().collect();
            let r = integrate_star(&b, &refs, StarKind::Left, &opts).unwrap();
            for (s, src) in sats.iter().zip(&r.metadata.sources[1..]) {
                let mut want = vec![NO_MATCH; b.num_rows()];
                for m in crate::reference::match_rows(&b, s, "pid", "pid", &opts.er).unwrap() {
                    want[m.left] = m.right as i64;
                }
                proptest::prop_assert_eq!(src.indicator.compressed(), &want[..]);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// A one-satellite star is the pair: the same `DiMetadata` and the
        /// same bits in every `Dₖ` (or the same error), for left and inner
        /// alignment, on typed keys, empty silos and shared feature names.
        #[test]
        fn pair_equals_one_satellite_star(
            seed in 0u64..u64::MAX,
            inner in 0usize..2,
            exact in 0usize..2,
        ) {
            use crate::er::tests::KEY_TYPES;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut silo = |name: &str| {
                let dtype = KEY_TYPES[rng.gen_range(0..KEY_TYPES.len())];
                let feat = ["f0", "f1"][rng.gen_range(0..2usize)];
                let rows = rng.gen_range(0..30);
                typed_silo(name, feat, dtype, rows, &mut rng)
            };
            let (l, r) = (silo("l"), silo("r"));
            let mut opts = opts();
            opts.er.exact_only = exact == 1;
            let (pair_kind, star_kind) = if inner == 1 {
                (ScenarioKind::InnerJoin, StarKind::Inner)
            } else {
                (ScenarioKind::LeftJoin, StarKind::Left)
            };
            let pair = integrate_pair(&l, &r, pair_kind, &opts);
            let star = integrate_star(&l, &[&r], star_kind, &opts);
            match (pair, star) {
                (Ok(p), Ok(s)) => {
                    proptest::prop_assert_eq!(p.kind, s.kind);
                    proptest::prop_assert_eq!(&p.metadata, &s.metadata);
                    let bits = |r: &IntegrationResult| -> Vec<((usize, usize), Vec<u64>)> {
                        r.source_data
                            .iter()
                            .map(|d| (d.shape(), d.as_slice().iter().map(|x| x.to_bits()).collect()))
                            .collect()
                    };
                    proptest::prop_assert_eq!(bits(&p), bits(&s));
                }
                (p, s) => proptest::prop_assert_eq!(p.err(), s.err()),
            }
        }
    }

    /// Left `{pid, a, b}` and right `{pid, a, c}` with the explicit
    /// correspondence `b ↔ c`.
    fn explicit_pair() -> (Table, Table, IntegrationOptions) {
        let table = |name: &str, cols: [&str; 2]| {
            TableBuilder::new(
                name,
                &[
                    ("pid", DataType::Int64),
                    (cols[0], DataType::Float64),
                    (cols[1], DataType::Float64),
                ],
            )
            .unwrap()
            .row(vec![1.into(), 2.0.into(), 3.0.into()])
            .unwrap()
            .build()
        };
        let mut o = opts();
        o.column_matches = Some(vec![("b".into(), "c".into())]);
        (table("l", ["a", "b"]), table("r", ["a", "c"]), o)
    }

    #[test]
    fn star_honours_explicit_column_matches() {
        let (l, r, o) = explicit_pair();
        let s = integrate_star(&l, &[&r], StarKind::Left, &o).unwrap();
        assert_eq!(s.metadata.target_columns, vec!["a", "b"]);
        // `c` feeds `b` through the correspondence, `a` its namesake.
        assert_eq!(s.metadata.sources[1].mapped_columns, vec!["a", "c"]);
        assert_eq!(s.metadata.sources[1].mapping.compressed(), &[0, 1]);
        let p = integrate_pair(&l, &r, ScenarioKind::LeftJoin, &o).unwrap();
        assert_eq!(p.metadata, s.metadata);
    }

    #[test]
    fn star_lets_a_discovered_match_win_over_a_name() {
        // The matcher pairs l.a with r.A (equal values, near-equal
        // names); r.a, unmatched, must not feed `a` a second time.
        let (l, r) = (
            crate::scenario::tests::name_clash_left(),
            crate::scenario::tests::name_clash_right(),
        );
        let o = IntegrationOptions::with_exact_key("id", "id");
        let s = integrate_star(&l, &[&r], StarKind::Left, &o).unwrap();
        assert_eq!(s.metadata.target_columns, vec!["a", "z"]);
        assert_eq!(s.metadata.sources[1].mapped_columns, vec!["A"]);
        assert_eq!(s.metadata.sources[1].mapping.compressed(), &[0, NO_MATCH]);
        assert_eq!(s.source_data[1].shape(), (3, 1));
    }

    #[test]
    fn star_with_no_satellites_is_just_the_base() {
        let b = base();
        let r = integrate_star(&b, &[], StarKind::Left, &opts()).unwrap();
        assert_eq!(r.metadata.sources.len(), 1);
        assert_eq!(r.metadata.target_columns, vec!["label", "age"]);
    }
}
