//! N-ary star integration: one base table joined with many augmenting
//! silos on a shared entity key.
//!
//! The drug-risk scenario of §I — features spread over clinics,
//! hospitals, pharmacies and laboratories — is not a two-table join but
//! a *star*: every silo aligns to the same patient population. This
//! planner generalizes [`integrate_pair`](crate::integrate_pair) to `n`
//! sources:
//!
//! * **Left star** (supervised training: the base holds the labels):
//!   target rows = base rows; each satellite contributes columns where
//!   its entities match.
//! * **Inner star** (VFL: only fully-shared entities): target rows =
//!   base rows matched in *every* satellite.
//!
//! Column correspondences between satellites and base are discovered per
//! pair (schema matching); the first contributor of a shared target
//! column wins, later duplicates are masked by redundancy matrices —
//! the same base-table precedence as §III-C.

use crate::er::{match_keys, Keys};
use crate::matching::{match_profiled, ProfiledTable};
use crate::metadata::{
    DiMetadata, IndicatorMatrix, MappingMatrix, RedundancyMatrix, SourceMetadata,
};
use crate::scenario::{IntegrationOptions, IntegrationResult, ScenarioKind};
use crate::{IntegrationError, Result};
use amalur_matrix::{DenseMatrix, NO_MATCH};
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
/// satellite).
///
/// # Errors
/// * [`IntegrationError::UnknownColumn`] when the key is missing.
/// * [`IntegrationError::NoMatches`] when an inner star matches nothing.
pub fn integrate_star(
    base: &Table,
    satellites: &[&Table],
    kind: StarKind,
    opts: &IntegrationOptions,
) -> Result<IntegrationResult> {
    let key = &opts.key.0;
    base.schema()
        .index_of(key)
        .map_err(|_| IntegrationError::UnknownColumn(key.clone()))?;
    for s in satellites {
        s.schema()
            .index_of(&opts.key.1)
            .map_err(|_| IntegrationError::UnknownColumn(opts.key.1.clone()))?;
    }

    // --- ER per satellite: base row → satellite row -----------------------
    // The base's keys are rendered and ordered once for every satellite.
    let base_keys = Keys::new(base, key)?;
    let mut sat_of_base: Vec<Vec<i64>> = Vec::with_capacity(satellites.len());
    for s in satellites {
        let matches = match_keys(&base_keys, &Keys::new(s, &opts.key.1)?, &opts.er);
        let mut map = vec![NO_MATCH; base.num_rows()];
        for m in &matches {
            map[m.left] = m.right as i64;
        }
        sat_of_base.push(map);
    }

    // --- surviving base rows -----------------------------------------------
    let base_rows: Vec<usize> = match kind {
        StarKind::Left => (0..base.num_rows()).collect(),
        StarKind::Inner => (0..base.num_rows())
            .filter(|&i| sat_of_base.iter().all(|m| m[i] != NO_MATCH))
            .collect(),
    };
    if base_rows.is_empty() {
        return Err(IntegrationError::NoMatches(
            "inner star: no entity appears in every silo".into(),
        ));
    }
    let target_rows = base_rows.len();

    // --- target schema -------------------------------------------------------
    // Base features first, then each satellite's unmatched features.
    let feature_cols = |t: &Table, k: &str| -> Vec<String> {
        t.numeric_column_names()
            .into_iter()
            .filter(|c| *c != k)
            .map(str::to_owned)
            .collect()
    };
    let base_features = feature_cols(base, key);
    let mut target_columns: Vec<String> = base_features.clone();
    // For each satellite: columns matched to an existing target column
    // (shared) vs new ones.
    let mut sat_shared: Vec<Vec<(String, String)>> = Vec::new(); // (sat col, target col)
    let mut sat_new: Vec<Vec<String>> = Vec::new();
    let base_profile = ProfiledTable::new(base, &opts.matching);
    for s in satellites {
        let sat_profile = ProfiledTable::new(s, &opts.matching);
        let matches = match_profiled(&base_profile, &sat_profile, &opts.matching);
        let feats = feature_cols(s, &opts.key.1);
        let mut shared = Vec::new();
        let mut fresh = Vec::new();
        for f in feats {
            let matched_target = matches
                .iter()
                .find(|m| m.right == f && target_columns.contains(&m.left))
                .map(|m| m.left.clone());
            match matched_target {
                Some(t) => shared.push((f, t)),
                None => {
                    if target_columns.contains(&f) {
                        // Same name as an existing target column: shared.
                        shared.push((f.clone(), f));
                    } else {
                        fresh.push(f);
                    }
                }
            }
        }
        target_columns.extend(fresh.iter().cloned());
        sat_shared.push(shared);
        sat_new.push(fresh);
    }

    // --- per-source metadata ---------------------------------------------
    let mut sources: Vec<SourceMetadata> = Vec::with_capacity(1 + satellites.len());
    let mut source_data: Vec<DenseMatrix> = Vec::with_capacity(1 + satellites.len());

    // Base source.
    let base_refs: Vec<&str> = base_features.iter().map(String::as_str).collect();
    let cm_base: Vec<i64> = target_columns
        .iter()
        .map(|t| {
            base_features
                .iter()
                .position(|c| c == t)
                .map_or(NO_MATCH, |p| p as i64)
        })
        .collect();
    let ci_base: Vec<i64> = base_rows.iter().map(|&r| r as i64).collect();
    let mapping = MappingMatrix::new(cm_base, base_features.len())?;
    let indicator = IndicatorMatrix::new(ci_base, base.num_rows())?;
    sources.push(SourceMetadata {
        name: base.name().to_owned(),
        mapped_columns: base_features.clone(),
        redundancy: RedundancyMatrix::all_ones(target_rows, target_columns.len()),
        mapping,
        indicator,
    });
    source_data.push(base.to_matrix(&base_refs, opts.null_value)?);

    // Satellites, in order; redundancy computed against all earlier.
    for (idx, s) in satellites.iter().enumerate() {
        let shared = &sat_shared[idx];
        let fresh = &sat_new[idx];
        // Mapped satellite columns in satellite-schema order.
        let mapped: Vec<String> = s
            .schema()
            .names()
            .iter()
            .filter(|c| shared.iter().any(|(sc, _)| sc == *c) || fresh.iter().any(|f| f == *c))
            .map(|c| (*c).to_owned())
            .collect();
        let cm: Vec<i64> = target_columns
            .iter()
            .map(|t| {
                // Either a shared column mapped onto target `t`, or a new
                // column named `t` itself.
                let sat_name = shared
                    .iter()
                    .find(|(_, tc)| tc == t)
                    .map(|(sc, _)| sc.as_str())
                    .or_else(|| fresh.iter().find(|f| *f == t).map(String::as_str));
                sat_name
                    .and_then(|n| mapped.iter().position(|c| c == n))
                    .map_or(NO_MATCH, |p| p as i64)
            })
            .collect();
        let ci: Vec<i64> = base_rows.iter().map(|&r| sat_of_base[idx][r]).collect();
        let mapping = MappingMatrix::new(cm, mapped.len())?;
        let indicator = IndicatorMatrix::new(ci, s.num_rows())?;
        let earlier: Vec<(&IndicatorMatrix, &MappingMatrix)> = sources
            .iter()
            .map(|src| (&src.indicator, &src.mapping))
            .collect();
        let redundancy = RedundancyMatrix::against_earlier(&earlier, &indicator, &mapping)?;
        let refs: Vec<&str> = mapped.iter().map(String::as_str).collect();
        source_data.push(s.to_matrix(&refs, opts.null_value)?);
        sources.push(SourceMetadata {
            name: s.name().to_owned(),
            mapped_columns: mapped,
            mapping,
            indicator,
            redundancy,
        });
    }

    let metadata = DiMetadata {
        target_columns,
        target_rows,
        sources,
    };
    metadata.validate()?;
    Ok(IntegrationResult {
        kind: match kind {
            StarKind::Left => ScenarioKind::LeftJoin,
            StarKind::Inner => ScenarioKind::InnerJoin,
        },
        metadata,
        source_data,
        tgds: Vec::new(),
        row_matches: Vec::new(),
        column_matches: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalur_matrix::DenseMatrix;
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

    #[test]
    fn star_with_no_satellites_is_just_the_base() {
        let b = base();
        let r = integrate_star(&b, &[], StarKind::Left, &opts()).unwrap();
        assert_eq!(r.metadata.sources.len(), 1);
        assert_eq!(r.metadata.target_columns, vec!["label", "age"]);
    }
}
