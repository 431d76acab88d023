//! The factorized target table.

use crate::{FactorizeError, Result};
use amalur_integration::{DiMetadata, IntegrationResult, SourceMetadata};
use amalur_matrix::{DenseMatrix, NO_MATCH};

/// A target table kept in factorized form: one data matrix `Dₖ` per
/// source plus the DI metadata that defines how they assemble into `T`.
///
/// `T[i, t] = Dₖ[CIₖ[i], CMₖ[t]]` for the *first* source `k` (in base-
/// table order) that covers target row `i` and target column `t`; the
/// redundancy matrices `Rₖ` encode exactly that precedence.
#[derive(Debug, Clone)]
pub struct FactorizedTable {
    metadata: DiMetadata,
    data: Vec<DenseMatrix>,
    plans: Vec<SourcePlan>,
}

/// How one source executes, derived once in [`FactorizedTable::new`]
/// from `CIₖ`, `CMₖ` and the group index of `Rₖ`.
///
/// The source's rows are *stacked*: rows `0..r_Sk` are the plain rows of
/// `Dₖ`, then one row per corrected-row slot `(g, r)` — source row `r`
/// with the mapped columns of `Z_g` zeroed. Every target row reads
/// exactly one stacked row (`eff`), so `T = Σₖ Îₖ Âₖ Mₖᵀ` with `Îₖ` a
/// plain selection and all redundancy folded into the slot rows of `Âₖ`.
///
/// A target row the source does not cover reads one more row past the
/// slots, the *sentinel* ([`Self::unmatched`]). The LMM fills it with
/// `+0` for the source that assigns `out` and with `−0` for a source
/// that adds (`x + −0 = x` for every `x`, `−0` included); the transposed
/// side scatters into it and never reads it. So the hot gathers and
/// scatters take no branch per row.
#[derive(Debug, Clone)]
pub(crate) struct SourcePlan {
    /// Stacked row that target row `i` reads; [`Self::unmatched`] for a
    /// row the source does not cover.
    pub(crate) eff: Vec<u32>,
    /// `(group, source row)` of each slot, sorted (see
    /// `RedundancyMatrix::slots`); slot `s` is stacked row `r_Sk + s`.
    pub(crate) slots: Vec<(usize, usize)>,
    /// `(target col, source col)` of every mapped column, by target col.
    pub(crate) mapped: Vec<(usize, usize)>,
    /// Per group, its range in `zero_pairs`.
    group_zero: Vec<(usize, usize)>,
    /// `(target col, source col)` of each group's mapped zero columns,
    /// by target col within a group.
    zero_pairs: Vec<(usize, usize)>,
    /// How many target rows read each stacked row.
    pub(crate) counts: Vec<f64>,
    /// Target rows this source feeds.
    pub(crate) matched_rows: usize,
    /// `Σ` over slots of their group's mapped zero columns — the
    /// correction cells one LMM spends per operand column.
    pub(crate) correction_cells: usize,
    /// `Îₖ` is the identity: target row `i` reads plain row `i` for every
    /// `i`, `Dₖ` has exactly `r_T` rows and there are no slots — the base
    /// table of a star. `Dₖ·(MₖᵀX)` is then this source's term of `T·X`
    /// row for row, with nothing to gather.
    pub(crate) identity: bool,
}

impl SourcePlan {
    /// # Errors
    /// [`FactorizeError::ShapeMismatch`] when the stacked rows and the
    /// sentinel do not fit a `u32` row index.
    fn new(s: &SourceMetadata) -> Result<Self> {
        let cm = s.mapping.compressed();
        let plain = s.indicator.source_rows();
        let slots = s.redundancy().slots(&s.indicator);
        // The sentinel is the stacked row after the last slot.
        let unmatched = u32::try_from(plain + slots.len()).map_err(|_| {
            FactorizeError::ShapeMismatch(format!(
                "source {}: {} stacked rows exceed 32-bit row indices",
                s.name,
                plain + slots.len() + 1
            ))
        })?;
        let mut counts = vec![0.0; unmatched as usize];
        let mut matched_rows = 0;
        let eff: Vec<u32> = s
            .indicator
            .compressed()
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                if e == NO_MATCH {
                    return unmatched;
                }
                // `slots` holds every matched (group ≥ 1, row) pair; group
                // 0 reads the plain row.
                let g = s.redundancy().group_of(i);
                let row = slots
                    .binary_search(&(g, e as usize))
                    .map_or(e as usize, |slot| plain + slot);
                counts[row] += 1.0;
                matched_rows += 1;
                row as u32
            })
            .collect();
        let mut group_zero = Vec::with_capacity(s.redundancy().group_count());
        let mut zero_pairs = Vec::new();
        for g in 0..s.redundancy().group_count() {
            let start = zero_pairs.len();
            zero_pairs.extend(
                s.redundancy()
                    .group_cols(g)
                    .iter()
                    .filter(|&&j| cm[j] != NO_MATCH)
                    .map(|&j| (j, cm[j] as usize)),
            );
            group_zero.push((start, zero_pairs.len()));
        }
        let correction_cells = slots
            .iter()
            .map(|&(g, _)| group_zero[g].1 - group_zero[g].0)
            .sum();
        let mapped = cm
            .iter()
            .enumerate()
            .filter(|&(_, &sc)| sc != NO_MATCH)
            .map(|(t, &sc)| (t, sc as usize))
            .collect();
        let identity = slots.is_empty()
            && plain == eff.len()
            && eff.iter().enumerate().all(|(i, &e)| e as usize == i);
        Ok(Self {
            eff,
            slots,
            mapped,
            group_zero,
            zero_pairs,
            counts,
            matched_rows,
            correction_cells,
            identity,
        })
    }

    /// The sentinel stacked row an uncovered target row reads, one past
    /// the slots.
    pub(crate) fn unmatched(&self) -> u32 {
        // `new` checked that it fits.
        self.counts.len() as u32
    }

    /// Rows of the stacked buffer a gather or scatter works in: the
    /// plain rows, the slots and the sentinel.
    pub(crate) fn stacked_rows(&self) -> usize {
        self.unmatched() as usize + 1
    }

    /// `(target col, source col)` pairs a slot of `group` masks.
    pub(crate) fn zero_of(&self, group: usize) -> &[(usize, usize)] {
        let (start, end) = self.group_zero[group];
        &self.zero_pairs[start..end]
    }

    /// The stacked matrix `Âₖ`: `d` followed by its masked slot rows.
    pub(crate) fn stacked(&self, d: &DenseMatrix) -> DenseMatrix {
        let mut a = d.clone();
        a.resize_rows(d.rows() + self.slots.len());
        for (slot, &(g, src)) in self.slots.iter().enumerate() {
            let row = a.row_mut(d.rows() + slot);
            row.copy_from_slice(d.row(src));
            for &(_, sc) in self.zero_of(g) {
                row[sc] = 0.0;
            }
        }
        a
    }
}

impl FactorizedTable {
    /// Builds a factorized table, validating that every `Dₖ` matches the
    /// metadata's declared shape (`r_Sk × c_Sk`).
    ///
    /// # Errors
    /// [`FactorizeError::ShapeMismatch`] on any disagreement, or when a
    /// source's stacked rows (plain rows, slots and the sentinel) do not
    /// fit a `u32` row index.
    pub fn new(metadata: DiMetadata, data: Vec<DenseMatrix>) -> Result<Self> {
        metadata.validate()?;
        if metadata.sources.len() != data.len() {
            return Err(FactorizeError::ShapeMismatch(format!(
                "{} sources in metadata but {} data matrices",
                metadata.sources.len(),
                data.len()
            )));
        }
        for (s, d) in metadata.sources.iter().zip(&data) {
            if d.cols() != s.mapping.source_cols() {
                return Err(FactorizeError::ShapeMismatch(format!(
                    "source {}: D has {} cols, mapping declares {}",
                    s.name,
                    d.cols(),
                    s.mapping.source_cols()
                )));
            }
            if d.rows() != s.indicator.source_rows() {
                return Err(FactorizeError::ShapeMismatch(format!(
                    "source {}: D has {} rows, indicator declares {}",
                    s.name,
                    d.rows(),
                    s.indicator.source_rows()
                )));
            }
        }
        let plans = metadata
            .sources
            .iter()
            .map(SourcePlan::new)
            .collect::<Result<_>>()?;
        Ok(Self {
            metadata,
            data,
            plans,
        })
    }

    /// Builds a factorized table directly from an integration planner's
    /// output.
    pub fn from_integration(result: IntegrationResult) -> Result<Self> {
        Self::new(result.metadata, result.source_data)
    }

    /// The DI metadata.
    pub fn metadata(&self) -> &DiMetadata {
        &self.metadata
    }

    /// The source data matrices `Dₖ`.
    pub fn source_data(&self) -> &[DenseMatrix] {
        &self.data
    }

    /// Metadata, data and execution plan of every source, in order.
    pub(crate) fn sources(
        &self,
    ) -> impl Iterator<Item = (&SourceMetadata, &DenseMatrix, &SourcePlan)> {
        self.metadata
            .sources
            .iter()
            .zip(&self.data)
            .zip(&self.plans)
            .map(|((s, d), p)| (s, d, p))
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.data.len()
    }

    /// Target table shape `(r_T, c_T)`.
    pub fn target_shape(&self) -> (usize, usize) {
        (self.metadata.target_rows, self.metadata.target_cols())
    }

    /// Total number of source cells Σ `r_Sk · c_Sk` — the storage the
    /// factorized representation actually holds.
    pub fn source_cells(&self) -> usize {
        self.data.iter().map(DenseMatrix::len).sum()
    }

    /// Target cells `r_T · c_T` — what materialization would allocate.
    pub fn target_cells(&self) -> usize {
        let (r, c) = self.target_shape();
        r * c
    }

    /// The intermediate contribution `Tₖ = IₖDₖMₖᵀ` of source `k`
    /// (Figure 4c), *without* redundancy masking.
    pub fn intermediate(&self, k: usize) -> Result<DenseMatrix> {
        let s = &self.metadata.sources[k];
        let gathered_cols = self.data[k].gather_cols(s.mapping.compressed())?;
        Ok(gathered_cols.gather_rows(s.indicator.compressed())?)
    }

    /// Materializes the target table `T = Σₖ Îₖ Âₖ Mₖᵀ`: every target row
    /// copies the mapped cells of the one stacked row it reads per
    /// source (masked cells arrive as the zeros of a slot row). The only
    /// `r_T × c_T` buffer is the output itself.
    pub fn materialize(&self) -> DenseMatrix {
        let (rows, cols) = self.target_shape();
        let mut out = DenseMatrix::zeros(rows, cols);
        for (_, d, plan) in self.sources() {
            let a = plan.stacked(d);
            let out_rows = out.as_mut_slice().chunks_exact_mut(cols.max(1));
            for (out_row, &e) in out_rows.zip(&plan.eff) {
                if e == plan.unmatched() {
                    continue;
                }
                let a_row = a.row(e as usize);
                for &(t, sc) in &plan.mapped {
                    out_row[t] += a_row[sc];
                }
            }
        }
        out
    }

    /// Materializes a single target column as a vector — used to extract
    /// label columns cheaply (labels must exist centrally for supervised
    /// training even in the factorized regime).
    ///
    /// # Errors
    /// [`FactorizeError::OperandMismatch`] when `col` is out of range.
    pub fn materialize_column(&self, col: usize) -> Result<Vec<f64>> {
        let (rows, cols) = self.target_shape();
        if col >= cols {
            return Err(FactorizeError::OperandMismatch {
                op: "materialize_column",
                expected: (rows, cols),
                found: (rows, col),
            });
        }
        let mut out = vec![0.0; rows];
        for (s, d) in self.metadata.sources.iter().zip(&self.data) {
            let src_col = s.mapping.compressed()[col];
            if src_col == NO_MATCH {
                continue;
            }
            let src_col = src_col as usize;
            let masked: Vec<bool> = (0..s.redundancy().group_count())
                .map(|g| s.redundancy().group_cols(g).binary_search(&col).is_ok())
                .collect();
            for (i, &src_row) in s.indicator.compressed().iter().enumerate() {
                if src_row == NO_MATCH || masked[s.redundancy().group_of(i)] {
                    continue;
                }
                out[i] += d.get(src_row as usize, src_col);
            }
        }
        Ok(out)
    }

    /// Returns a new factorized table without target column `col`
    /// (e.g. splitting the label column off the feature matrix). The
    /// source data matrices are unchanged — the dropped column merely
    /// becomes unmapped: every source is pushed again with `col` removed
    /// from its `CMₖ`, and its `Rₖ` is derived anew.
    ///
    /// # Errors
    /// [`FactorizeError::OperandMismatch`] when `col` is out of range.
    pub fn drop_target_column(&self, col: usize) -> Result<FactorizedTable> {
        let (rows, cols) = self.target_shape();
        if col >= cols {
            return Err(FactorizeError::OperandMismatch {
                op: "drop_target_column",
                expected: (rows, cols),
                found: (rows, col),
            });
        }
        let mut target_columns = self.metadata.target_columns.clone();
        target_columns.remove(col);
        let mut metadata = DiMetadata::new(target_columns, rows);
        for s in &self.metadata.sources {
            let mut cm = s.mapping.compressed().to_vec();
            cm.remove(col);
            metadata.push_source(
                s.name.clone(),
                s.mapped_columns.clone(),
                cm,
                s.indicator.compressed().to_vec(),
                s.indicator.source_rows(),
            )?;
        }
        FactorizedTable::new(metadata, self.data.clone())
    }

    /// Splits target column `label_col` off as the label vector `y`,
    /// returning `(features, y)` where `features` is the factorized table
    /// over the remaining columns.
    ///
    /// # Errors
    /// Propagates out-of-range errors from the split.
    pub fn split_label(&self, label_col: usize) -> Result<(FactorizedTable, DenseMatrix)> {
        let y = self.materialize_column(label_col)?;
        let features = self.drop_target_column(label_col)?;
        Ok((features, DenseMatrix::column_vector(&y)))
    }

    /// Per-row squared norms `‖T[i,:]‖²` without materialization.
    ///
    /// Because the redundancy masks give the masked contributions `T̃ₖ`
    /// disjoint supports, `T ∘ T = Σₖ T̃ₖ ∘ T̃ₖ` and the squared norms
    /// decompose per source: one norm per stacked row of `Âₖ`, gathered
    /// through `eff`. Needed by K-Means (distance computation) and GNMF
    /// (reconstruction loss).
    pub fn row_norms_sq(&self) -> Vec<f64> {
        let (rows, _) = self.target_shape();
        let mut out = vec![0.0; rows];
        for (_, d, plan) in self.sources() {
            // By index: `row_iter` yields no rows for a key-only
            // (zero-column) source, whose stacked rows still have norm 0.
            let a = plan.stacked(d);
            let norms: Vec<f64> = (0..a.rows())
                .map(|r| {
                    let row = a.row(r);
                    plan.mapped.iter().map(|&(_, sc)| row[sc] * row[sc]).sum()
                })
                .collect();
            for (o, &e) in out.iter_mut().zip(&plan.eff) {
                if e != plan.unmatched() {
                    *o += norms[e as usize];
                }
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The running example in factorized form (Figure 4).
    pub(crate) fn running_example() -> FactorizedTable {
        let d1 = DenseMatrix::from_rows(&[
            vec![0.0, 20.0, 60.0],
            vec![1.0, 35.0, 58.0],
            vec![0.0, 22.0, 65.0],
            vec![1.0, 37.0, 70.0],
        ])
        .unwrap();
        let d2 = DenseMatrix::from_rows(&[
            vec![1.0, 45.0, 95.0],
            vec![0.0, 20.0, 97.0],
            vec![1.0, 37.0, 92.0],
        ])
        .unwrap();
        let names = |cols: &[&str]| cols.iter().map(|&c| c.to_owned()).collect();
        let mut metadata = DiMetadata::new(names(&["m", "a", "hr", "o"]), 6);
        metadata
            .push_source(
                "S1",
                names(&["m", "a", "hr"]),
                vec![0, 1, 2, NO_MATCH],
                vec![0, 1, 2, 3, NO_MATCH, NO_MATCH],
                4,
            )
            .unwrap();
        metadata
            .push_source(
                "S2",
                names(&["m", "a", "o"]),
                vec![0, 1, NO_MATCH, 2],
                vec![NO_MATCH, NO_MATCH, NO_MATCH, 2, 0, 1],
                3,
            )
            .unwrap();
        FactorizedTable::new(metadata, vec![d1, d2]).unwrap()
    }

    /// The materialized T of Figure 2d (rows: Jack, Sam, Ruby, Jane, Rose,
    /// Castiel; cols: m, a, hr, o; missing cells are 0).
    pub(crate) fn figure2d_target() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![0.0, 20.0, 60.0, 0.0],
            vec![1.0, 35.0, 58.0, 0.0],
            vec![0.0, 22.0, 65.0, 0.0],
            vec![1.0, 37.0, 70.0, 92.0],
            vec![1.0, 45.0, 0.0, 95.0],
            vec![0.0, 20.0, 0.0, 97.0],
        ])
        .unwrap()
    }

    #[test]
    fn materialize_reproduces_figure2d() {
        let ft = running_example();
        assert_eq!(ft.target_shape(), (6, 4));
        assert!(ft.materialize().approx_eq(&figure2d_target(), 1e-12));
    }

    #[test]
    fn intermediate_t2_has_unmasked_duplicates() {
        // Figure 4c: T2 contains Jane's (m, a) again — the red values.
        let ft = running_example();
        let t2 = ft.intermediate(1).unwrap();
        assert_eq!(t2.get(3, 0), 1.0); // duplicate m
        assert_eq!(t2.get(3, 1), 37.0); // duplicate a
        assert_eq!(t2.get(3, 3), 92.0); // genuine new o
        assert_eq!(t2.get(0, 0), 0.0); // Jack's row: no S2 contribution
                                       // Naive T1 + T2 would double-count Jane: T1+T2 ≠ T.
        let t1 = ft.intermediate(0).unwrap();
        let naive = t1.add(&t2).unwrap();
        assert!(!naive.approx_eq(&figure2d_target(), 1e-12));
    }

    #[test]
    fn materialize_column_extracts_labels() {
        let ft = running_example();
        // Column 0 is the mortality label.
        assert_eq!(
            ft.materialize_column(0).unwrap(),
            vec![0.0, 1.0, 0.0, 1.0, 1.0, 0.0]
        );
        // Column 3 is oxygen.
        assert_eq!(
            ft.materialize_column(3).unwrap(),
            vec![0.0, 0.0, 0.0, 92.0, 95.0, 97.0]
        );
        assert!(ft.materialize_column(9).is_err());
    }

    #[test]
    fn split_label_drops_column() {
        let ft = running_example();
        let (features, y) = ft.split_label(0).unwrap();
        assert_eq!(features.target_shape(), (6, 3));
        assert_eq!(features.metadata().target_columns, vec!["a", "hr", "o"]);
        assert_eq!(y.shape(), (6, 1));
        assert_eq!(y.col(0), vec![0.0, 1.0, 0.0, 1.0, 1.0, 0.0]);
        // Feature materialization equals T with col 0 removed.
        let t = figure2d_target();
        let expect = t.slice(0..6, 1..4).unwrap();
        assert!(features.materialize().approx_eq(&expect, 1e-12));
    }

    #[test]
    fn drop_target_column_remaps_redundancy() {
        let ft = running_example();
        // Dropping column 0 (m) shifts the redundancy zero at (3, 1)=a to (3, 0).
        let dropped = ft.drop_target_column(0).unwrap();
        let r2 = &dropped.metadata().sources[1].redundancy();
        assert_eq!(r2.get(3, 0), 0.0); // a
        assert_eq!(r2.get(3, 2), 1.0); // o
        assert_eq!(r2.zero_count(), 1);
        // Dropping the redundant 'a' column (idx 1) removes one zero too.
        let dropped2 = ft.drop_target_column(1).unwrap();
        assert_eq!(dropped2.metadata().sources[1].redundancy().zero_count(), 1);
    }

    #[test]
    fn shape_validation() {
        let ft = running_example();
        let mut bad_data = ft.source_data().to_vec();
        bad_data[0] = DenseMatrix::zeros(4, 2); // wrong cols
        assert!(FactorizedTable::new(ft.metadata().clone(), bad_data).is_err());
        let mut bad_rows = ft.source_data().to_vec();
        bad_rows[1] = DenseMatrix::zeros(5, 3); // wrong rows
        assert!(FactorizedTable::new(ft.metadata().clone(), bad_rows).is_err());
        assert!(FactorizedTable::new(ft.metadata().clone(), vec![]).is_err());
    }

    /// `T` without column `col`, as bits.
    fn bits_without(t: &DenseMatrix, col: usize) -> Vec<u64> {
        (0..t.rows())
            .flat_map(|i| t.row(i).iter().enumerate().filter(move |&(j, _)| j != col))
            .map(|(_, v)| v.to_bits())
            .collect()
    }

    /// For every column `c`: the table without `c` materializes to `T`
    /// without `c`, and the label `split_label` returns is `T`'s column
    /// `c` — bit for bit.
    fn assert_drops_are_bit_exact(ft: &FactorizedTable) {
        let t = ft.materialize();
        for col in 0..ft.target_shape().1 {
            let (features, y) = ft.split_label(col).unwrap();
            let dropped = ft.drop_target_column(col).unwrap();
            let got = dropped.materialize();
            assert_eq!(got.shape(), (t.rows(), t.cols() - 1));
            let got: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, bits_without(&t, col), "column {col}");
            assert_eq!(features.metadata(), dropped.metadata(), "column {col}");
            let want: Vec<u64> = t.col(col).iter().map(|v| v.to_bits()).collect();
            let y: Vec<u64> = y.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(y, want, "label {col}");
        }
    }

    /// A source whose `Rₖ` has two blocks: S3 overlaps S1 on rows 0–2 and
    /// columns {0, 1}, and S2 on rows 2–4 and column {3}; row 2 lies in
    /// both. Dropping column 3 empties the second block.
    #[test]
    fn drop_target_column_is_bit_exact_on_two_blocks() {
        let mut metadata = DiMetadata::new((0..5).map(|i| format!("c{i}")).collect(), 6);
        let names = |k: usize, n: usize| (0..n).map(|c| format!("s{k}_{c}")).collect();
        let sources: [(&[i64], &[i64], usize); 3] = [
            (
                &[0, 1, NO_MATCH, NO_MATCH, NO_MATCH],
                &[0, 1, 2, NO_MATCH, NO_MATCH, 3],
                4,
            ),
            (
                &[NO_MATCH, NO_MATCH, 0, 1, NO_MATCH],
                &[NO_MATCH, NO_MATCH, 0, 1, 2, NO_MATCH],
                3,
            ),
            (&[0, 1, NO_MATCH, 2, 3], &[0, 1, 1, 0, 2, NO_MATCH], 3),
        ];
        let mut data = Vec::new();
        for (k, &(cm, ci, rows)) in sources.iter().enumerate() {
            let cols = cm.iter().filter(|&&j| j != NO_MATCH).count();
            metadata
                .push_source(
                    format!("S{k}"),
                    names(k, cols),
                    cm.to_vec(),
                    ci.to_vec(),
                    rows,
                )
                .unwrap();
            let values = (0..rows * cols)
                .map(|v| (10 * k + v) as f64 - 7.5)
                .collect();
            data.push(DenseMatrix::from_vec(rows, cols, values).unwrap());
        }
        let r = metadata.sources[2].redundancy();
        assert_eq!(r.zero_cols(1), &[0, 1]);
        assert_eq!(r.zero_cols(2), &[0, 1, 3]);
        assert_eq!(r.zero_cols(4), &[3]);
        assert_drops_are_bit_exact(&FactorizedTable::new(metadata, data).unwrap());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Generated scenarios of every topology, with shared columns,
        /// partial coverage and signed zeros in the data.
        #[test]
        fn prop_drop_target_column_is_bit_exact(
            seed in 0u64..u64::MAX,
            topology in 0usize..4,
            shared_cols in 0usize..3,
            coverage in 0usize..2,
        ) {
            let spec = amalur_gen::ScenarioSpec {
                topology: [
                    amalur_gen::Topology::Star { satellites: 2 },
                    amalur_gen::Topology::Snowflake { arms: 2, depth: 2 },
                    amalur_gen::Topology::Chain { hops: 2 },
                    amalur_gen::Topology::ManyToMany,
                ][topology],
                base_rows: 30,
                base_cols: 4,
                dim_rows: 6,
                dim_cols: 3,
                shared_cols,
                coverage: [1.0, 0.5][coverage],
                seed,
                ..amalur_gen::ScenarioSpec::default()
            };
            let (metadata, mut data) = amalur_gen::generate(&spec).unwrap();
            for d in &mut data {
                for v in d.as_mut_slice().iter_mut().step_by(7) {
                    *v = -0.0;
                }
            }
            assert_drops_are_bit_exact(&FactorizedTable::new(metadata, data).unwrap());
        }
    }

    #[test]
    fn storage_accounting() {
        let ft = running_example();
        assert_eq!(ft.source_cells(), 12 + 9);
        assert_eq!(ft.target_cells(), 24);
    }
}
