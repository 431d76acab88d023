//! DI-metadata-driven party alignment (§V-A).
//!
//! The paper rewrites the federated objective with the DI matrices:
//! `X_A = I₁D₁M₁ᵀ` and `X_B = I₂D₂M₂ᵀ` — each party's feature space *is*
//! its masked intermediate, aligned to the shared target rows. This
//! module materializes those views (per party, never the whole target),
//! which is exactly the data preparation VFL frameworks otherwise demand
//! as manual work.

use crate::{FederatedError, Result};
use amalur_factorize::FactorizedTable;
use amalur_matrix::DenseMatrix;

/// One party's aligned view of the integrated data.
#[derive(Debug, Clone)]
pub struct PartyView {
    /// Party (source table) name.
    pub name: String,
    /// Feature matrix `(Iₖ Dₖ Mₖᵀ) ∘ Rₖ`, restricted to this source's
    /// target columns: `target_rows × |own columns|`. Rows this party
    /// does not cover are zero — the §V-A convention for partially
    /// overlapping sample spaces.
    pub features: DenseMatrix,
    /// Names of the target columns this view carries.
    pub columns: Vec<String>,
}

/// Builds the per-party views for every source of a factorized table.
///
/// Redundant cells (shared columns owned by an earlier party) are
/// zeroed, so concatenating all views column-wise reproduces the target
/// table exactly — the invariant the VFL equivalence tests rely on.
///
/// # Errors
/// Propagates shape errors from the factorized ops.
pub fn party_views(ft: &FactorizedTable) -> Result<Vec<PartyView>> {
    let md = ft.metadata();
    let mut out = Vec::with_capacity(md.sources.len());
    for (k, s) in md.sources.iter().enumerate() {
        // Masked intermediate, then keep only this source's columns.
        let full = ft.intermediate(k)?;
        let masked = if s.redundancy().is_all_ones() {
            full
        } else {
            let mut m = full;
            for row in 0..m.rows() {
                for &c in s.redundancy().zero_cols(row) {
                    m.set(row, c, 0.0);
                }
            }
            m
        };
        let own_cols = s.mapping.mapped_target_cols();
        if own_cols.is_empty() {
            return Err(FederatedError::Misaligned(format!(
                "source {} maps no target columns",
                s.name
            )));
        }
        let idx: Vec<i64> = own_cols.iter().map(|&c| c as i64).collect();
        let features = masked.gather_cols(&idx)?;
        out.push(PartyView {
            name: s.name.clone(),
            features,
            columns: own_cols
                .iter()
                .map(|&c| md.target_columns[c].clone())
                .collect(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalur_data::TwoSourceSpec;

    fn table(shared_cols: usize) -> FactorizedTable {
        let spec = TwoSourceSpec {
            rows_s1: 40,
            cols_s1: 3,
            rows_s2: 8,
            cols_s2: 4,
            shared_cols,
            target_redundancy: true,
            row_coverage: 1.0,
            source_redundancy: false,
            seed: 5,
        };
        let (md, data) = amalur_data::generate_two_source(&spec).unwrap();
        FactorizedTable::new(md, data).unwrap()
    }

    #[test]
    fn views_have_aligned_rows_and_own_columns() {
        let ft = table(0);
        let views = party_views(&ft).unwrap();
        assert_eq!(views.len(), 2);
        let (rows, _) = ft.target_shape();
        assert_eq!(views[0].features.rows(), rows);
        assert_eq!(views[1].features.rows(), rows);
        assert_eq!(views[0].features.cols(), 3);
        assert_eq!(views[1].features.cols(), 4);
        assert_eq!(views[0].columns, vec!["f0", "f1", "f2"]);
    }

    #[test]
    fn concatenated_views_reproduce_target_without_overlap() {
        let ft = table(0);
        let views = party_views(&ft).unwrap();
        let concat = views[0].features.hstack(&views[1].features).unwrap();
        assert!(concat.approx_eq(&ft.materialize(), 1e-12));
    }

    #[test]
    fn overlapping_columns_are_split_not_duplicated() {
        let ft = table(2);
        let views = party_views(&ft).unwrap();
        let t = ft.materialize();
        // Shared target columns 0..2: party views partition each cell.
        for shared in 0..2usize {
            let a = views[0].features.col(shared);
            // Party 1's view also carries those target columns (its own
            // first two mapped columns).
            let b = views[1].features.col(shared);
            for (i, (va, vb)) in a.iter().zip(&b).enumerate() {
                let total = t.get(i, shared);
                assert!(
                    (va + vb - total).abs() < 1e-9,
                    "row {i}: {va} + {vb} != {total}"
                );
            }
        }
    }

    #[test]
    fn sum_of_view_predictions_equals_target_prediction() {
        // Σₖ Xₖ θₖ = T θ when θ is split by ownership — the §V-A identity.
        let ft = table(1);
        let views = party_views(&ft).unwrap();
        let (_, ct) = ft.target_shape();
        let theta = DenseMatrix::filled(ct, 1, 0.3);
        let reference = ft.materialize().matmul(&theta).unwrap();
        let mut sum = DenseMatrix::zeros(reference.rows(), 1);
        let md = ft.metadata();
        for (view, s) in views.iter().zip(&md.sources) {
            let own = s.mapping.mapped_target_cols();
            let theta_k =
                DenseMatrix::from_vec(own.len(), 1, own.iter().map(|&c| theta.get(c, 0)).collect())
                    .unwrap();
            sum.add_assign(&view.features.matmul(&theta_k).unwrap())
                .unwrap();
        }
        assert!(sum.approx_eq(&reference, 1e-9));
    }

    // --- hand-built edge cases: errors, never panics --------------------

    use amalur_integration::DiMetadata;
    use amalur_matrix::NO_MATCH;

    /// Two single-column sources over a hand-specified row alignment.
    fn two_source_table(ci1: Vec<i64>, ci2: Vec<i64>, target_rows: usize) -> FactorizedTable {
        let mut md = DiMetadata::new(vec!["a".into(), "b".into()], target_rows);
        for (name, cm, ci) in [
            ("s1", vec![0, NO_MATCH], ci1),
            ("s2", vec![NO_MATCH, 0], ci2),
        ] {
            md.push_source(name, vec![format!("{name}_c0")], cm, ci, 3)
                .unwrap();
        }
        let d = |vals: &[f64]| DenseMatrix::from_vec(3, 1, vals.to_vec()).unwrap();
        FactorizedTable::new(md, vec![d(&[1.0, 2.0, 3.0]), d(&[10.0, 20.0, 30.0])]).unwrap()
    }

    #[test]
    fn empty_intersection_yields_views_training_rejects() {
        // An inner join that matched nothing: zero target rows. The
        // views materialize fine (0-row features) and training turns
        // them into a typed error, not a NaN run or a panic.
        let ft = two_source_table(vec![], vec![], 0);
        let views = party_views(&ft).unwrap();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].features.rows(), 0);
        let features: Vec<DenseMatrix> = views.into_iter().map(|v| v.features).collect();
        let y = DenseMatrix::zeros(0, 1);
        assert!(matches!(
            crate::vfl::train_vfl(&features, &y, &crate::vfl::VflConfig::default()),
            Err(FederatedError::Misaligned(_))
        ));
    }

    #[test]
    fn single_party_view_is_the_whole_target() {
        let ab = || vec!["a".to_owned(), "b".to_owned()];
        let mut md = DiMetadata::new(ab(), 3);
        md.push_source("only", ab(), vec![0, 1], vec![0, 1, 2], 3)
            .unwrap();
        let data = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let ft = FactorizedTable::new(md, vec![data]).unwrap();
        let views = party_views(&ft).unwrap();
        assert_eq!(views.len(), 1);
        assert!(views[0].features.approx_eq(&ft.materialize(), 1e-12));
        assert_eq!(views[0].columns, vec!["a", "b"]);
    }

    #[test]
    fn duplicate_join_keys_repeat_rows_without_panic() {
        // Two target rows resolve to the same source row (duplicate join
        // keys): the view repeats the row rather than failing.
        let ft = two_source_table(vec![0, 0, 1], vec![2, 2, 0], 3);
        let views = party_views(&ft).unwrap();
        assert_eq!(views[0].features.col(0), vec![1.0, 1.0, 2.0]);
        assert_eq!(views[1].features.col(0), vec![30.0, 30.0, 10.0]);
    }

    #[test]
    fn source_mapping_no_columns_is_a_typed_error() {
        let mut md = DiMetadata::new(vec!["a".into()], 2);
        md.push_source("full", vec!["a".into()], vec![0], vec![0, 1], 2)
            .unwrap();
        md.push_source("hollow", vec![], vec![NO_MATCH], vec![0, 1], 2)
            .unwrap();
        let ft = FactorizedTable::new(
            md,
            vec![
                DenseMatrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap(),
                DenseMatrix::zeros(2, 0),
            ],
        )
        .unwrap();
        match party_views(&ft) {
            Err(FederatedError::Misaligned(m)) => assert!(m.contains("hollow")),
            other => panic!("expected Misaligned, got {other:?}"),
        }
    }
}
