//! Cost-model inputs extracted from DI metadata.
//!
//! §IV-B: "among silos there are parameters relevant for the redundancy,
//! source description (e.g., number of sources, number of columns and
//! rows in each source, null value ratio per table), source
//! correspondences (column matching and row matching between sources)".
//! [`CostFeatures`] gathers all of them from a [`DiMetadata`], so cost
//! models stay pure functions over this struct.

use amalur_factorize::{FactorizedTable, OpCounts};
use amalur_integration::DiMetadata;
use amalur_matrix::NO_MATCH;

/// Per-source statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFeatures {
    /// Source name.
    pub name: String,
    /// Rows of the source data matrix `Dₖ`.
    pub rows: usize,
    /// Columns of `Dₖ`.
    pub cols: usize,
    /// Target columns this source feeds (non-`-1` entries of `CMₖ`).
    pub mapped_target_cols: usize,
    /// Target rows this source feeds (non-`-1` entries of `CIₖ`).
    pub matched_target_rows: usize,
    /// Distinct source rows referenced by the indicator — when smaller
    /// than `matched_target_rows`, tuples fan out (PK–FK redundancy).
    pub distinct_source_rows: usize,
    /// Cells of `Tₖ` masked as redundant by `Rₖ`.
    pub redundant_cells: usize,
    /// Cells the factorized operators spend correcting them, per operand
    /// column: one per corrected-row slot and zero column
    /// (`RedundancyMatrix::slot_correction_cells`), at most
    /// `redundant_cells`.
    pub correction_cells: usize,
}

impl SourceFeatures {
    /// Average number of target rows fed by each referenced source row
    /// (1.0 = no fan-out; > 1 = the target repeats this source's tuples).
    pub fn fanout(&self) -> f64 {
        if self.distinct_source_rows == 0 {
            return 0.0;
        }
        self.matched_target_rows as f64 / self.distinct_source_rows as f64
    }
}

/// Everything a factorize-vs-materialize decision may depend on
/// (data-side; the workload side lives in
/// [`crate::TrainingWorkload`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CostFeatures {
    /// Target rows `r_T`.
    pub target_rows: usize,
    /// Target columns `c_T`.
    pub target_cols: usize,
    /// Per-source statistics (base table first).
    pub sources: Vec<SourceFeatures>,
}

impl CostFeatures {
    /// Extracts features from DI metadata.
    pub fn from_metadata(md: &DiMetadata) -> Self {
        let sources = md
            .sources
            .iter()
            .map(|s| {
                let ci = s.indicator.compressed();
                let matched = ci.iter().filter(|&&j| j != NO_MATCH).count();
                let mut distinct: Vec<i64> =
                    ci.iter().copied().filter(|&j| j != NO_MATCH).collect();
                distinct.sort_unstable();
                distinct.dedup();
                SourceFeatures {
                    name: s.name.clone(),
                    rows: s.indicator.source_rows(),
                    cols: s.mapping.source_cols(),
                    mapped_target_cols: s.mapping.mapped_target_cols().len(),
                    matched_target_rows: matched,
                    distinct_source_rows: distinct.len(),
                    redundant_cells: s.redundancy().zero_count(),
                    correction_cells: s.redundancy().slot_correction_cells(&s.indicator),
                }
            })
            .collect();
        Self {
            target_rows: md.target_rows,
            target_cols: md.target_cols(),
            sources,
        }
    }

    /// Convenience: features straight from a factorized table.
    pub fn from_table(ft: &FactorizedTable) -> Self {
        Self::from_metadata(ft.metadata())
    }

    /// Cells of the materialized target, `r_T · c_T`.
    pub fn target_cells(&self) -> usize {
        self.target_rows * self.target_cols
    }

    /// Total cells stored across sources, `Σ r_Sk · c_Sk`.
    pub fn source_cells(&self) -> usize {
        self.sources.iter().map(|s| s.rows * s.cols).sum()
    }

    /// The classic **tuple ratio**: target rows over the smallest source's
    /// rows — how often the "dimension" table's tuples repeat after the
    /// join. Morpheus' first decision parameter.
    pub fn tuple_ratio(&self) -> f64 {
        let min_rows = self
            .sources
            .iter()
            .map(|s| s.rows)
            .min()
            .unwrap_or(1)
            .max(1);
        self.target_rows as f64 / min_rows as f64
    }

    /// The classic **feature ratio**: the non-base sources' columns over
    /// the base source's columns. Morpheus' second decision parameter.
    pub fn feature_ratio(&self) -> f64 {
        let base_cols = self.sources.first().map_or(1, |s| s.cols).max(1);
        let other_cols: usize = self.sources.iter().skip(1).map(|s| s.cols).sum();
        other_cols as f64 / base_cols as f64
    }

    /// Target cells divided by source cells — > 1 means the join *expands*
    /// the data (real redundancy to exploit), < 1 means it shrinks it.
    pub fn expansion_ratio(&self) -> f64 {
        let sc = self.source_cells().max(1);
        self.target_cells() as f64 / sc as f64
    }

    /// Whether the target table actually repeats source tuples (any source
    /// has fan-out > 1).
    pub fn has_target_redundancy(&self) -> bool {
        self.sources.iter().any(|s| s.fanout() > 1.0 + 1e-9)
    }

    /// Operation counts of one compressed-strategy GD epoch (`T·X` plus
    /// `Tᵀ·X`, each [`OpCounts::lmm_source`] summed over the sources), so
    /// cost models and their calibration price plans from metadata alone.
    pub fn epoch_op_counts(&self, x_cols: usize) -> OpCounts {
        let mut c = OpCounts::zero();
        for s in &self.sources {
            // One LMM + one transpose-LMM per epoch → 2× the per-source
            // single-op counts.
            c = c.plus(
                &OpCounts::lmm_source(
                    s.rows,
                    s.cols,
                    s.matched_target_rows,
                    s.mapped_target_cols,
                    s.correction_cells,
                    x_cols,
                )
                .scaled(2.0),
            );
        }
        c
    }

    /// Operation counts of [`FactorizedTable::materialize`]: the target
    /// cells written plus every source cell gathered into them.
    pub fn materialize_op_counts(&self) -> OpCounts {
        let mut assembly = self.target_cells() as f64;
        for s in &self.sources {
            assembly += OpCounts::assembly_source_cells(
                s.matched_target_rows,
                s.mapped_target_cols,
                s.redundant_cells,
            );
        }
        OpCounts {
            assembly_cells: assembly,
            // One gather pass per source.
            dispatch_calls: self.sources.len() as f64,
            ..OpCounts::zero()
        }
    }

    /// Operation counts of one GD epoch on the materialized table: two
    /// plain GEMMs against `T`.
    pub fn materialized_epoch_op_counts(&self, x_cols: usize) -> OpCounts {
        OpCounts::materialized_epoch(self.target_cells(), x_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalur_integration::DiMetadata;

    /// PK–FK configuration: 6 target rows, S1 6×2 (1:1), S2 2×3 (fan-out 3).
    fn pkfk() -> DiMetadata {
        dim_indicator(vec![0, 1, 0, 1, 0, 1])
    }

    /// [`pkfk`] with `ci` as the dimension's `CIₖ`.
    fn dim_indicator(ci: Vec<i64>) -> DiMetadata {
        let names = |cols: &[&str]| cols.iter().map(|&c| c.to_owned()).collect();
        let mut md = DiMetadata::new((0..5).map(|i| format!("c{i}")).collect(), 6);
        md.push_source(
            "fact",
            names(&["a", "b"]),
            vec![0, 1, NO_MATCH, NO_MATCH, NO_MATCH],
            vec![0, 1, 2, 3, 4, 5],
            6,
        )
        .unwrap();
        md.push_source(
            "dim",
            names(&["x", "y", "z"]),
            vec![NO_MATCH, NO_MATCH, 0, 1, 2],
            ci,
            2,
        )
        .unwrap();
        md
    }

    #[test]
    fn extracts_shapes_and_counts() {
        let f = CostFeatures::from_metadata(&pkfk());
        assert_eq!(f.target_rows, 6);
        assert_eq!(f.target_cols, 5);
        assert_eq!(f.sources.len(), 2);
        let dim = &f.sources[1];
        assert_eq!(dim.rows, 2);
        assert_eq!(dim.cols, 3);
        assert_eq!(dim.matched_target_rows, 6);
        assert_eq!(dim.distinct_source_rows, 2);
        assert!((dim.fanout() - 3.0).abs() < 1e-12);
        assert_eq!(dim.redundant_cells, 0); // disjoint columns
    }

    #[test]
    fn ratios() {
        let f = CostFeatures::from_metadata(&pkfk());
        assert!((f.tuple_ratio() - 3.0).abs() < 1e-12); // 6 / min(6,2)
        assert!((f.feature_ratio() - 1.5).abs() < 1e-12); // 3 / 2
        assert_eq!(f.target_cells(), 30);
        assert_eq!(f.source_cells(), 12 + 6);
        assert!((f.expansion_ratio() - 30.0 / 18.0).abs() < 1e-12);
        assert!(f.has_target_redundancy());
    }

    #[test]
    fn no_redundancy_when_one_to_one() {
        // The dim indicator is 1:1 over 2 of 6 target rows.
        let md = dim_indicator(vec![0, 1, NO_MATCH, NO_MATCH, NO_MATCH, NO_MATCH]);
        let f = CostFeatures::from_metadata(&md);
        assert!(!f.has_target_redundancy());
        assert!((f.sources[1].fanout() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn op_counts_agree_with_table_level_counters() {
        use amalur_data::{generate_two_source, TwoSourceSpec};
        use amalur_matrix::DenseMatrix;
        // An epoch is one `T·X` plus one `Tᵀ·X`: twice the table-level
        // LMM counts, which `crates/factorize/tests/metrics.rs` pins to
        // the kernel's own counters.
        let agree = |ft: &FactorizedTable| {
            let f = CostFeatures::from_table(ft);
            for n in [1usize, 3] {
                assert_eq!(f.epoch_op_counts(n), ft.lmm_op_counts(n).scaled(2.0));
            }
            assert!(f.epoch_op_counts(1).gemm_flops > 0.0);
            f
        };
        let data = vec![DenseMatrix::ones(6, 2), DenseMatrix::ones(2, 3)];
        let f = agree(&FactorizedTable::new(pkfk(), data).unwrap());
        // 6×5 target written, fact gathers 6·2 cells, dim 6·3.
        assert_eq!(f.materialize_op_counts().assembly_cells, 30.0 + 12.0 + 18.0);
        assert_eq!(f.materialize_op_counts().dispatch_calls, 2.0);

        // Two shared columns under PK–FK fan-out: 200 target rows read 40
        // dimension rows, and the correction is priced per slot — what
        // the kernels execute — not per redundant target cell.
        let (md, data) = generate_two_source(&TwoSourceSpec {
            rows_s1: 200,
            cols_s1: 3,
            rows_s2: 40,
            cols_s2: 6,
            shared_cols: 2,
            ..TwoSourceSpec::default()
        })
        .unwrap();
        let f = agree(&FactorizedTable::new(md, data).unwrap());
        assert_eq!(f.sources[1].redundant_cells, 200 * 2);
        assert_eq!(f.sources[1].correction_cells, 40 * 2);
        assert_eq!(f.epoch_op_counts(3).correction_cells, 2.0 * 80.0 * 3.0);
    }

    #[test]
    fn empty_source_fanout_is_zero() {
        let md = dim_indicator(vec![NO_MATCH; 6]);
        let f = CostFeatures::from_metadata(&md);
        assert_eq!(f.sources[1].fanout(), 0.0);
    }
}
