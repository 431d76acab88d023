//! The three matrices: mapping, indicator and redundancy (§III).
//!
//! * [`MappingMatrix`] — which source column feeds which target column
//!   (Definitions III.1/III.2). Stored compressed (`CMₖ`): a vector of
//!   length `c_T` whose entry `i` is the source column mapped to target
//!   column `i`, or `-1`.
//! * [`IndicatorMatrix`] — which source row feeds which target row
//!   (Definition III.3). Stored compressed (`CIₖ`): a vector of length
//!   `r_T` whose entry `i` is the source row mapped to target row `i`,
//!   or `-1`.
//! * [`RedundancyMatrix`] — which cells of the intermediate
//!   `Tₖ = Iₖ Dₖ Mₖᵀ` repeat values already contributed by an earlier
//!   source (Definition III.4). Zero cells form a union of row×column
//!   cross-product blocks (one per overlapping earlier source), which is
//!   stored structurally so that `r_T = 5M` rows never require a dense
//!   `r_T × c_T` materialization.
//!
//! # One constructor
//!
//! [`DiMetadata::new`] followed by one [`DiMetadata::push_source`] per
//! source is the only way to build DI metadata. `push_source` validates
//! `CMₖ` and `CIₖ` against the target shape and *derives* `Rₖ` from the
//! sources pushed before it; `Rₖ` is never supplied. Definition III.4
//! fixes `Rₖ` from the `CIₖ`/`CMₖ` of the earlier sources, and an `Rₖ`
//! that contradicts it silently corrupts `T` — two sources covering one
//! cell would both be added into it. Since [`SourceMetadata`] has a
//! private field, no code outside this crate can assemble one by hand,
//! so every [`DiMetadata`] holds the definition by construction.

use crate::{IntegrationError, Result};
use amalur_matrix::{selection_matrix, DenseMatrix, NO_MATCH};

/// Compressed mapping matrix `CMₖ` (Definition III.2) with its expansion
/// to the full binary `Mₖ` (Definition III.1) on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingMatrix {
    /// `cm[i] = j` when source column `j` maps to target column `i`;
    /// `-1` when target column `i` has no counterpart in this source.
    cm: Vec<i64>,
    /// Number of mapped columns in the source table (`c_Sk`).
    source_cols: usize,
}

impl MappingMatrix {
    /// Builds a compressed mapping matrix, validating all indices.
    ///
    /// # Errors
    /// [`IntegrationError::InvalidMetadata`] when an index is out of range
    /// or a source column is mapped to more than one target column
    /// (the paper's matrices are sub-permutations: "each attribute in the
    /// source table is mapped to only one attribute in T").
    pub(crate) fn new(cm: Vec<i64>, source_cols: usize) -> Result<Self> {
        let mut seen = vec![false; source_cols];
        for &j in &cm {
            if j == NO_MATCH {
                continue;
            }
            let idx = usize::try_from(j).map_err(|_| {
                IntegrationError::InvalidMetadata(format!("negative mapping index {j}"))
            })?;
            if idx >= source_cols {
                return Err(IntegrationError::InvalidMetadata(format!(
                    "mapping index {idx} out of range for source with {source_cols} columns"
                )));
            }
            if seen[idx] {
                return Err(IntegrationError::InvalidMetadata(format!(
                    "source column {idx} mapped to multiple target columns"
                )));
            }
            seen[idx] = true;
        }
        Ok(Self { cm, source_cols })
    }

    /// The compressed vector `CMₖ`.
    pub fn compressed(&self) -> &[i64] {
        &self.cm
    }

    /// Number of target columns (`c_T`).
    pub fn target_cols(&self) -> usize {
        self.cm.len()
    }

    /// Number of mapped source columns (`c_Sk`).
    pub fn source_cols(&self) -> usize {
        self.source_cols
    }

    /// Target columns that have a counterpart in this source.
    pub fn mapped_target_cols(&self) -> Vec<usize> {
        self.cm
            .iter()
            .enumerate()
            .filter(|(_, &j)| j != NO_MATCH)
            .map(|(i, _)| i)
            .collect()
    }

    /// Expands to the full binary matrix `Mₖ` of shape `c_T × c_Sk`.
    pub fn to_dense(&self) -> DenseMatrix {
        // Entries were range-checked on construction; the zero matrix is
        // the defensive fallback for the unreachable error branch.
        selection_matrix(&self.cm, self.source_cols)
            .unwrap_or_else(|_| DenseMatrix::zeros(self.cm.len(), self.source_cols))
    }
}

/// Compressed indicator matrix `CIₖ` (Definition III.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndicatorMatrix {
    /// `ci[i] = j` when source row `j` maps to target row `i`; `-1`
    /// otherwise.
    ci: Vec<i64>,
    /// Number of rows in the source table (`r_Sk`).
    source_rows: usize,
}

impl IndicatorMatrix {
    /// Builds a compressed indicator matrix, validating indices. Unlike
    /// mapping matrices, a source row *may* feed several target rows
    /// (PK–FK joins duplicate dimension rows), so duplicates are allowed.
    pub(crate) fn new(ci: Vec<i64>, source_rows: usize) -> Result<Self> {
        for &j in &ci {
            if j == NO_MATCH {
                continue;
            }
            let idx = usize::try_from(j).map_err(|_| {
                IntegrationError::InvalidMetadata(format!("negative indicator index {j}"))
            })?;
            if idx >= source_rows {
                return Err(IntegrationError::InvalidMetadata(format!(
                    "indicator index {idx} out of range for source with {source_rows} rows"
                )));
            }
        }
        Ok(Self { ci, source_rows })
    }

    /// The compressed vector `CIₖ`.
    pub fn compressed(&self) -> &[i64] {
        &self.ci
    }

    /// Number of target rows (`r_T`).
    pub fn target_rows(&self) -> usize {
        self.ci.len()
    }

    /// Number of source rows (`r_Sk`).
    pub fn source_rows(&self) -> usize {
        self.source_rows
    }

    /// Expands to the full binary matrix `Iₖ` of shape `r_T × r_Sk`.
    pub fn to_dense(&self) -> DenseMatrix {
        // Entries were range-checked on construction; the zero matrix is
        // the defensive fallback for the unreachable error branch.
        selection_matrix(&self.ci, self.source_rows)
            .unwrap_or_else(|_| DenseMatrix::zeros(self.ci.len(), self.source_rows))
    }
}

/// One cross-product block of redundant cells: every `(row, col)` pair in
/// `rows × cols` is a zero of the redundancy matrix.
#[derive(Debug)]
struct DupBlock {
    /// Target row indices covered by both this source and an earlier one,
    /// ascending.
    rows: Vec<usize>,
    /// Target column indices mapped by both this source and that same
    /// earlier source, ascending.
    cols: Vec<usize>,
}

/// Redundancy matrix `Rₖ` (Definition III.4), stored structurally.
///
/// `Rₖ[i, j] = 0` iff some earlier source covers both target row `i` and
/// target column `j` — the cross product of the rows and the columns the
/// two sources share, one block per overlapping earlier source; all other
/// entries are 1. The base table's matrix is all ones (no blocks). Built
/// only by [`DiMetadata::push_source`].
///
/// # Groups
///
/// A row's zero columns are the union of the column sets of the blocks
/// that contain it, so a source with `B` overlapping earlier sources has
/// at most `2^B` *distinct* zero-column sets however many rows it has.
/// The index built at construction stores each distinct set once — a
/// **group**; group 0 is always the empty set — plus one group id per
/// target row: `O(r_T)` memory in one flat vector, no per-row
/// allocation, and [`Self::zero_cols`] is two array reads.
///
/// # Slots
///
/// What a factorized operator must correct is not a target row but a
/// *source* row seen through a group: every target row `i` with
/// `CIₖ[i] = r` and group `g ≥ 1` reads the same masked row
/// `Dₖ[r, ·]` with the columns of `Z_g` removed. The distinct `(g, r)`
/// pairs are the **corrected-row slots** ([`Self::slots`]); the
/// rewrites compute each slot once and let the target rows gather it.
/// Rows of group 0 need no slot — they read the plain source row. One
/// LMM therefore spends `Σ_g slots_g · |Z_g|` correction cells per
/// operand column ([`Self::slot_correction_cells`]), and since every
/// slot is referenced by at least one target row whose own `|Z_g|`
/// cells are zeros, that is never more than [`Self::zero_count`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundancyMatrix {
    rows: usize,
    cols: usize,
    /// Zero-column sets of all groups, concatenated; group `g` owns
    /// `group_cols[group_start[g]..group_start[g + 1]]`, sorted.
    group_cols: Vec<usize>,
    group_start: Vec<usize>,
    /// Group of each target row; empty when there are no blocks (every
    /// row is then in group 0).
    row_group: Vec<u32>,
    /// Zero cells, overlapping blocks counted once.
    zero_count: usize,
}

impl RedundancyMatrix {
    /// Builds the group index over blocks (sorted, deduplicated, in
    /// range) by partition refinement: every block splits each existing
    /// group into "rows also in this block" — whose zero set gains the
    /// block's columns — and the rest. Allocations are per *group*,
    /// never per row; the blocks are not kept.
    fn indexed(rows: usize, cols: usize, blocks: Vec<DupBlock>) -> Self {
        let mut sets: Vec<Vec<usize>> = vec![Vec::new()];
        let mut row_group = vec![0u32; if blocks.is_empty() { 0 } else { rows }];
        for b in &blocks {
            // child[g]: the group of g's rows that also lie in `b`.
            let mut child: Vec<Option<u32>> = vec![None; sets.len()];
            for &r in &b.rows {
                let g = row_group[r] as usize;
                row_group[r] = *child[g].get_or_insert_with(|| {
                    let mut merged = [sets[g].as_slice(), &b.cols].concat();
                    merged.sort_unstable();
                    merged.dedup();
                    // Equal column sets share one group, whichever
                    // blocks produced them.
                    let id = sets.iter().position(|s| *s == merged).unwrap_or_else(|| {
                        sets.push(merged);
                        sets.len() - 1
                    });
                    id as u32
                });
            }
        }
        // Drop the groups refinement left without rows (group 0 stays).
        let mut members = vec![0usize; sets.len()];
        for &g in &row_group {
            members[g as usize] += 1;
        }
        let mut renumber = vec![0u32; sets.len()];
        let mut group_cols = Vec::new();
        let mut group_start = vec![0];
        let mut zero_count = 0;
        for (g, set) in sets.iter().enumerate() {
            if g > 0 && members[g] == 0 {
                continue;
            }
            renumber[g] = (group_start.len() - 1) as u32;
            group_cols.extend_from_slice(set);
            group_start.push(group_cols.len());
            zero_count += members[g] * set.len();
        }
        for g in &mut row_group {
            *g = renumber[*g as usize];
        }
        Self {
            rows,
            cols,
            group_cols,
            group_start,
            row_group,
            zero_count,
        }
    }

    /// Computes `Rₖ` for a source with `indicator` and `mapping` against
    /// the `earlier` sources (Definition III.4 with source 0 as base
    /// table): the cell `(i, j)` of `Tₖ` is redundant iff some earlier
    /// source `k' < k` also covers target row `i` *and* target column
    /// `j`. With no earlier source it is the all-ones matrix. The shapes
    /// agree: [`DiMetadata::push_source`] checked them.
    ///
    /// The shared columns come first: an earlier source that shares none
    /// adds no block, and its `r_T` row scan is skipped.
    pub(crate) fn against_earlier(
        earlier: &[SourceMetadata],
        indicator: &IndicatorMatrix,
        mapping: &MappingMatrix,
    ) -> Self {
        let covered = |&(_, (&a, &b)): &(usize, (&i64, &i64))| a != NO_MATCH && b != NO_MATCH;
        let mut blocks = Vec::new();
        for s in earlier {
            let cols: Vec<usize> = (s.mapping.compressed().iter().zip(mapping.compressed()))
                .enumerate()
                .filter(covered)
                .map(|(c, _)| c)
                .collect();
            if cols.is_empty() {
                continue;
            }
            let rows: Vec<usize> = (s.indicator.compressed().iter().zip(indicator.compressed()))
                .enumerate()
                .filter(covered)
                .map(|(i, _)| i)
                .collect();
            if !rows.is_empty() {
                blocks.push(DupBlock { rows, cols });
            }
        }
        Self::indexed(indicator.target_rows(), mapping.target_cols(), blocks)
    }

    /// Matrix shape (`r_T × c_T`).
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when no cell is redundant (all-ones matrix).
    pub fn is_all_ones(&self) -> bool {
        self.row_group.is_empty()
    }

    /// Number of groups (distinct zero-column sets, the empty group 0
    /// included).
    pub fn group_count(&self) -> usize {
        self.group_start.len() - 1
    }

    /// Group of target row `row` (0 for rows without zeros or out of
    /// range).
    pub fn group_of(&self, row: usize) -> usize {
        self.row_group.get(row).map_or(0, |&g| g as usize)
    }

    /// Sorted zero columns of group `group`.
    pub fn group_cols(&self, group: usize) -> &[usize] {
        &self.group_cols[self.group_start[group]..self.group_start[group + 1]]
    }

    /// Sorted zero columns of target row `row`, in O(1).
    pub fn zero_cols(&self, row: usize) -> &[usize] {
        self.group_cols(self.group_of(row))
    }

    /// Value of `Rₖ[i, j]` (0.0 or 1.0).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if self.zero_cols(i).binary_search(&j).is_ok() {
            0.0
        } else {
            1.0
        }
    }

    /// Number of zero (redundant) cells, counting overlapping blocks once.
    pub fn zero_count(&self) -> usize {
        self.zero_count
    }

    /// The corrected-row slots of this source under `indicator` (its
    /// `CIₖ`): the distinct `(group, source row)` pairs with
    /// `group ≥ 1` that some matched target row reads, sorted — so the
    /// slots of one group are contiguous and a pair's position is a
    /// binary search away.
    pub fn slots(&self, indicator: &IndicatorMatrix) -> Vec<(usize, usize)> {
        let mut slots: Vec<(usize, usize)> = indicator
            .compressed()
            .iter()
            .zip(&self.row_group)
            .filter(|&(&src, &g)| src != NO_MATCH && g != 0)
            .map(|(&src, &g)| (g as usize, src as usize))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Redundancy-correction cells one factorized LMM (or transpose-LMM)
    /// executes per operand column: `Σ_g slots_g · |Z_g|`. The single
    /// authority the operation counts and the cost features price the
    /// correction phase from; never more than [`Self::zero_count`].
    pub fn slot_correction_cells(&self, indicator: &IndicatorMatrix) -> usize {
        self.slots(indicator)
            .iter()
            .map(|&(g, _)| self.group_cols(g).len())
            .sum()
    }

    /// Expands to the dense binary matrix of Definition III.4. Intended
    /// for tests and small illustrative outputs (Figure 4), not for the
    /// large benchmark shapes.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::ones(self.rows, self.cols);
        for r in 0..self.row_group.len() {
            for &c in self.zero_cols(r) {
                out.set(r, c, 0.0);
            }
        }
        out
    }
}

/// Complete DI metadata for one source table, built only by
/// [`DiMetadata::push_source`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceMetadata {
    /// Source table name.
    pub name: String,
    /// Mapped source column names, in source order — the columns of `Dₖ`.
    pub mapped_columns: Vec<String>,
    /// Mapping matrix `Mₖ` / `CMₖ`.
    pub mapping: MappingMatrix,
    /// Indicator matrix `Iₖ` / `CIₖ`.
    pub indicator: IndicatorMatrix,
    /// Redundancy matrix `Rₖ`, derived from the earlier sources.
    redundancy: RedundancyMatrix,
}

impl SourceMetadata {
    /// Redundancy matrix `Rₖ` (Definition III.4).
    pub fn redundancy(&self) -> &RedundancyMatrix {
        &self.redundancy
    }
}

/// DI metadata for an integration task: the target schema plus one
/// [`SourceMetadata`] per source (source 0 is the base table).
///
/// Built with [`Self::new`] and one [`Self::push_source`] per source, in
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct DiMetadata {
    /// Target (mediated) schema column names — `T(m, a, hr, o)` in the
    /// running example.
    pub target_columns: Vec<String>,
    /// Number of target rows `r_T`.
    pub target_rows: usize,
    /// Per-source metadata, base table first.
    pub sources: Vec<SourceMetadata>,
}

impl DiMetadata {
    /// Metadata of a target with `target_columns` and `target_rows` rows,
    /// and no source yet.
    pub fn new(target_columns: Vec<String>, target_rows: usize) -> Self {
        Self {
            target_columns,
            target_rows,
            sources: Vec::new(),
        }
    }

    /// Appends a source: `mapped_columns` names the columns of its `Dₖ`,
    /// `cm` is its `CMₖ` (one entry per target column) and `ci` its
    /// `CIₖ` (one entry per target row) over `source_rows` rows. `Rₖ` is
    /// derived from the sources pushed before it (Definition III.4): all
    /// ones for the first source.
    ///
    /// # Errors
    /// [`IntegrationError::InvalidMetadata`] when `cm` or `ci` has an
    /// index out of range, maps a source column twice, or disagrees with
    /// the target shape; `self` is then unchanged.
    pub fn push_source(
        &mut self,
        name: impl Into<String>,
        mapped_columns: Vec<String>,
        cm: Vec<i64>,
        ci: Vec<i64>,
        source_rows: usize,
    ) -> Result<()> {
        let name = name.into();
        let mapping = MappingMatrix::new(cm, mapped_columns.len())?;
        let indicator = IndicatorMatrix::new(ci, source_rows)?;
        self.check_shape(&name, &mapping, &indicator)?;
        let redundancy = RedundancyMatrix::against_earlier(&self.sources, &indicator, &mapping);
        self.sources.push(SourceMetadata {
            name,
            mapped_columns,
            mapping,
            indicator,
            redundancy,
        });
        Ok(())
    }

    /// Number of target columns `c_T`.
    pub fn target_cols(&self) -> usize {
        self.target_columns.len()
    }

    /// Validates that every source still agrees with the target shape —
    /// the public fields can be edited after [`Self::push_source`].
    ///
    /// # Errors
    /// [`IntegrationError::InvalidMetadata`] when a source's matrices
    /// disagree with the target shape.
    pub fn validate(&self) -> Result<()> {
        for s in &self.sources {
            self.check_shape(&s.name, &s.mapping, &s.indicator)?;
            if s.redundancy.shape() != (self.target_rows, self.target_cols()) {
                return Err(IntegrationError::InvalidMetadata(format!(
                    "source {}: redundancy shape {:?} does not match target {:?}",
                    s.name,
                    s.redundancy.shape(),
                    (self.target_rows, self.target_cols())
                )));
            }
            if s.mapping.source_cols() != s.mapped_columns.len() {
                return Err(IntegrationError::InvalidMetadata(format!(
                    "source {}: mapping declares {} source cols but {} column names",
                    s.name,
                    s.mapping.source_cols(),
                    s.mapped_columns.len()
                )));
            }
        }
        Ok(())
    }

    /// `CMₖ` has one entry per target column and `CIₖ` one per target row.
    fn check_shape(
        &self,
        name: &str,
        mapping: &MappingMatrix,
        indicator: &IndicatorMatrix,
    ) -> Result<()> {
        if mapping.target_cols() != self.target_cols() {
            return Err(IntegrationError::InvalidMetadata(format!(
                "source {name}: mapping has {} target cols, expected {}",
                mapping.target_cols(),
                self.target_cols()
            )));
        }
        if indicator.target_rows() != self.target_rows {
            return Err(IntegrationError::InvalidMetadata(format!(
                "source {name}: indicator has {} target rows, expected {}",
                indicator.target_rows(),
                self.target_rows
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Target `T(m, a, hr, o)` over 6 rows.
    fn target() -> DiMetadata {
        DiMetadata::new(vec!["m".into(), "a".into(), "hr".into(), "o".into()], 6)
    }

    /// The running example of Figure 4: S1 maps (m, a, hr), S2 maps
    /// (m, a, o). Target rows are Jack, Sam, Ruby, Jane, Rose, Castiel;
    /// S1 rows 0..4 are Jack, Sam, Ruby, Jane; S2 rows 0..3 are Rose,
    /// Castiel, Jane.
    fn figure4_metadata() -> DiMetadata {
        let names = |cols: &[&str]| cols.iter().map(|&c| c.to_owned()).collect();
        let mut md = target();
        md.push_source(
            "S1",
            names(&["m", "a", "hr"]),
            vec![0, 1, 2, NO_MATCH],
            vec![0, 1, 2, 3, NO_MATCH, NO_MATCH],
            4,
        )
        .unwrap();
        md.push_source(
            "S2",
            names(&["m", "a", "o"]),
            vec![0, 1, NO_MATCH, 2],
            vec![NO_MATCH, NO_MATCH, NO_MATCH, 2, 0, 1],
            3,
        )
        .unwrap();
        md
    }

    /// `Rₖ` of the last of `sources` — `(CMₖ, CIₖ, r_Sk)` each — pushed in
    /// order onto a `rows × cols` target.
    fn last_redundancy(
        rows: usize,
        cols: usize,
        sources: &[(&[i64], &[i64], usize)],
    ) -> RedundancyMatrix {
        let mut md = DiMetadata::new((0..cols).map(|c| format!("c{c}")).collect(), rows);
        for (k, &(cm, ci, source_rows)) in sources.iter().enumerate() {
            let mapped = cm.iter().filter(|&&j| j != NO_MATCH).count();
            let names = (0..mapped).map(|c| format!("s{k}_{c}")).collect();
            md.push_source(
                format!("S{k}"),
                names,
                cm.to_vec(),
                ci.to_vec(),
                source_rows,
            )
            .unwrap();
        }
        md.sources.pop().unwrap().redundancy
    }

    #[test]
    fn mapping_matrix_figure4a() {
        let md = figure4_metadata();
        let (cm1, cm2) = (&md.sources[0].mapping, &md.sources[1].mapping);
        let m1 = cm1.to_dense();
        // Figure 4a: M1 rows (T.m, T.a, T.hr, T.o) × cols (S1.m, S1.a, S1.hr)
        assert_eq!(m1.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(m1.row(1), &[0.0, 1.0, 0.0]);
        assert_eq!(m1.row(2), &[0.0, 0.0, 1.0]);
        assert_eq!(m1.row(3), &[0.0, 0.0, 0.0]);
        let m2 = cm2.to_dense();
        assert_eq!(m2.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(m2.row(1), &[0.0, 1.0, 0.0]);
        assert_eq!(m2.row(2), &[0.0, 0.0, 0.0]);
        assert_eq!(m2.row(3), &[0.0, 0.0, 1.0]);
        assert_eq!(cm1.mapped_target_cols(), vec![0, 1, 2]);
        assert_eq!(cm2.mapped_target_cols(), vec![0, 1, 3]);
    }

    #[test]
    fn mapping_matrix_validation() {
        assert!(MappingMatrix::new(vec![0, 2], 3).is_ok());
        assert!(MappingMatrix::new(vec![0, NO_MATCH], 3).is_ok());
        assert!(MappingMatrix::new(vec![0, 5], 3).is_err()); // out of range
        assert!(MappingMatrix::new(vec![0, 0], 3).is_err()); // duplicate source col
        assert!(MappingMatrix::new(vec![-7], 3).is_err()); // invalid negative
    }

    #[test]
    fn indicator_matrix_allows_duplicates() {
        // PK–FK join: dimension row 0 feeds two target rows.
        let i = IndicatorMatrix::new(vec![0, 0, 1], 2).unwrap();
        assert_eq!(i.to_dense().col(0), vec![1.0, 1.0, 0.0]);
        assert!(IndicatorMatrix::new(vec![5], 2).is_err());
    }

    #[test]
    fn indicator_to_dense() {
        let i2 = figure4_metadata().sources[1].indicator.to_dense();
        assert_eq!(i2.shape(), (6, 3));
        assert_eq!(i2.get(3, 2), 1.0); // Jane: target row 3 ← S2 row 2
        assert_eq!(i2.get(4, 0), 1.0); // Rose
        assert_eq!(i2.get(0, 0), 0.0);
    }

    #[test]
    fn redundancy_matrix_figure4c() {
        let md = figure4_metadata();
        let r2 = md.sources[1].redundancy();
        // Only Jane's row (target row 3) is shared; shared mapped columns
        // are m (0) and a (1). T2's hr column is unmapped, o is S2-only.
        assert_eq!(r2.get(3, 0), 0.0);
        assert_eq!(r2.get(3, 1), 0.0);
        assert_eq!(r2.get(3, 2), 1.0);
        assert_eq!(r2.get(3, 3), 1.0);
        assert_eq!(r2.get(4, 0), 1.0); // Rose's row is not redundant
        assert_eq!(r2.zero_count(), 2);
        let dense = r2.to_dense();
        assert_eq!(dense.sum(), 24.0 - 2.0);
    }

    #[test]
    fn base_table_redundancy_is_all_ones() {
        let md = figure4_metadata();
        let r = md.sources[0].redundancy();
        assert!(r.is_all_ones());
        assert_eq!(r.zero_count(), 0);
        assert_eq!(r.to_dense(), DenseMatrix::ones(6, 4));
    }

    #[test]
    fn overlapping_blocks_count_once() {
        // S0 covers rows {0,1} × cols {0,1}, S1 rows {1,2} × cols {1,2};
        // S2 covers every cell, so its blocks are exactly those two.
        let r = last_redundancy(
            4,
            4,
            &[
                (&[0, 1, NO_MATCH, NO_MATCH], &[0, 1, NO_MATCH, NO_MATCH], 2),
                (&[NO_MATCH, 0, 1, NO_MATCH], &[NO_MATCH, 0, 1, NO_MATCH], 2),
                (&[0, 1, 2, 3], &[0, 1, 2, 3], 4),
            ],
        );
        // Cells: {0,1}×{0,1} ∪ {1,2}×{1,2} = {(0,0),(0,1),(1,0),(1,1),(1,2),(2,1),(2,2)}
        assert_eq!(r.zero_count(), 7);
        assert_eq!(r.get(1, 1), 0.0);
        assert_eq!(r.get(0, 2), 1.0);
        assert_eq!(r.zero_cols(1), &[0, 1, 2]);
    }

    #[test]
    fn groups_are_the_distinct_zero_column_sets() {
        // The last source covers target rows 0–4 and 6 and columns
        // {0, 1, 3}. Earlier, A covers rows 0–3 on columns {0, 1}, B rows
        // 2–5 on {3}, C rows 4–5 on {0, 1} again: row 4 ends with A ∪ B
        // like rows 2 and 3, through a different pair of sources.
        let ci = [0, 0, 1, 1, 1, NO_MATCH, 0];
        let a_cm = [0, 1, NO_MATCH, NO_MATCH, NO_MATCH];
        let a_ci = [0, 1, 2, 3, NO_MATCH, NO_MATCH, NO_MATCH];
        let b_cm = [NO_MATCH, NO_MATCH, NO_MATCH, 0, NO_MATCH];
        let b_ci = [NO_MATCH, NO_MATCH, 0, 1, 2, 3, NO_MATCH];
        let c_ci = [NO_MATCH, NO_MATCH, NO_MATCH, NO_MATCH, 0, 1, NO_MATCH];
        let own_cm = [0, 1, NO_MATCH, 2, NO_MATCH];
        let r = last_redundancy(
            7,
            5,
            &[
                (&a_cm, &a_ci, 4),
                (&b_cm, &b_ci, 4),
                (&a_cm, &c_ci, 2),
                (&own_cm, &ci, 2),
            ],
        );
        // ∅, {0,1}, {0,1,3}; the transient {3} of row 4 is dropped.
        assert_eq!(r.group_count(), 3);
        assert_eq!(r.group_cols(0), &[] as &[usize]);
        assert_eq!(r.zero_cols(0), &[0, 1]);
        assert_eq!(r.zero_cols(3), &[0, 1, 3]);
        assert_eq!(r.group_of(2), r.group_of(4));
        assert_eq!(r.zero_cols(5), &[] as &[usize]);
        assert_eq!(r.zero_cols(6), &[] as &[usize]);
        assert_eq!(r.zero_cols(99), &[] as &[usize]);
        assert_eq!(r.zero_count(), 2 * 2 + 3 * 3);
        assert_eq!(r.to_dense().sum(), 35.0 - 13.0);

        // Slots: distinct (group, source row) pairs over matched rows.
        let ci = IndicatorMatrix::new(ci.to_vec(), 2).unwrap();
        let (g1, g2) = (r.group_of(0), r.group_of(2));
        assert_eq!(r.slots(&ci), vec![(g1, 0), (g2, 1)]);
        assert_eq!(r.slot_correction_cells(&ci), 2 + 3);
        assert!(r.slot_correction_cells(&ci) <= r.zero_count());
        let none = last_redundancy(7, 5, &[(&a_cm, &a_ci, 4)]);
        assert_eq!(none.group_count(), 1);
        assert!(none.slots(&ci).is_empty());
    }

    #[test]
    fn push_source_rejects_a_shape_mismatch() {
        let md = figure4_metadata();
        let names = || vec!["x".to_owned()];
        let mut pushed = md.clone();
        // CIₖ shorter than r_T, CMₖ shorter than c_T, a bad index.
        assert!(pushed
            .push_source(
                "short",
                names(),
                vec![0, NO_MATCH, NO_MATCH, NO_MATCH],
                vec![0],
                3
            )
            .is_err());
        assert!(pushed
            .push_source("narrow", names(), vec![0], vec![0; 6], 1)
            .is_err());
        assert!(pushed
            .push_source(
                "bad",
                names(),
                vec![0, 0, NO_MATCH, NO_MATCH],
                vec![0; 6],
                1
            )
            .is_err());
        // A failed push leaves the metadata as it was.
        assert_eq!(pushed, md);
    }

    #[test]
    fn no_shared_rows_means_all_ones() {
        // Union scenario: disjoint rows.
        let r2 = last_redundancy(
            4,
            2,
            &[
                (&[0, 1], &[0, 1, NO_MATCH, NO_MATCH], 2),
                (&[0, 1], &[NO_MATCH, NO_MATCH, 0, 1], 2),
            ],
        );
        assert!(r2.is_all_ones());
    }

    #[test]
    fn di_metadata_validate() {
        let md = figure4_metadata();
        assert!(md.validate().is_ok());
        assert_eq!(md.target_cols(), 4);

        let mut bad = md.clone();
        bad.target_rows = 5;
        assert!(bad.validate().is_err());

        let mut bad2 = md;
        bad2.sources[0].mapped_columns.pop();
        assert!(bad2.validate().is_err());
    }
}
