//! Plan-level operation counters.
//!
//! The cost-model calibration (in `amalur-cost`) fits per-operation
//! hardware costs against measured runtimes. The regression *features*
//! are the abstract operation counts of the physical plans implemented
//! by [`FactorizedTable::lmm_into`] and
//! [`FactorizedTable::materialize`]; this module derives those counts
//! from the DI metadata so they always agree with what the kernels
//! actually execute:
//!
//! * **GEMM flops** — the `Dₖ · (MₖᵀX)` / `Dₖᵀ · (IₖᵀX)` multiplications
//!   (2 flops per cell-product);
//! * **traffic cells** — every cell moved by a gather or scatter over the
//!   compressed `CIₖ`/`CMₖ` vectors (the irregular-access part);
//! * **correction cells** — the slot-level redundancy correction: one
//!   cell per corrected-row slot and zero column of its group
//!   (`RedundancyMatrix::slot_correction_cells`), not one per redundant
//!   target cell;
//! * **assembly cells** — cells written to or read from sources while
//!   materializing the target table;
//! * **dispatch calls** — per-source kernel dispatches (scatter + GEMM +
//!   gather treated as one dispatch). Each dispatch carries a fixed
//!   overhead independent of the operand sizes, which dominates on
//!   sub-ms tiny tables — the calibration's intercept-like term.

use crate::table::FactorizedTable;
use amalur_matrix::NO_MATCH;

/// Abstract operation counts of a factorized or materialized plan —
/// the regression features of the cost-model calibration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCounts {
    /// Dense GEMM floating-point operations (multiply + add counted as 2).
    pub gemm_flops: f64,
    /// Cells moved through gather/scatter over compressed metadata.
    pub traffic_cells: f64,
    /// Cells of the slot-level redundancy correction (`Σ_g slots_g·|Z_g|`
    /// per operand column).
    pub correction_cells: f64,
    /// Cells written/read while assembling the materialized target.
    pub assembly_cells: f64,
    /// Per-source kernel dispatches — the size-independent fixed
    /// overhead each operator invocation pays (the model's intercept).
    pub dispatch_calls: f64,
}

impl OpCounts {
    /// All-zero counts.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            gemm_flops: self.gemm_flops + other.gemm_flops,
            traffic_cells: self.traffic_cells + other.traffic_cells,
            correction_cells: self.correction_cells + other.correction_cells,
            assembly_cells: self.assembly_cells + other.assembly_cells,
            dispatch_calls: self.dispatch_calls + other.dispatch_calls,
        }
    }

    /// Total abstract work units (used to size timing loops). Dispatch
    /// calls are bookkeeping, not data-proportional work, so they are
    /// excluded here.
    pub fn total_units(&self) -> f64 {
        self.gemm_flops + self.traffic_cells + self.correction_cells + self.assembly_cells
    }

    /// Component-wise scaling.
    #[must_use]
    pub fn scaled(&self, k: f64) -> OpCounts {
        OpCounts {
            gemm_flops: self.gemm_flops * k,
            traffic_cells: self.traffic_cells * k,
            correction_cells: self.correction_cells * k,
            assembly_cells: self.assembly_cells * k,
            dispatch_calls: self.dispatch_calls * k,
        }
    }

    /// Counts contributed by **one source** to one compressed
    /// LMM (`T·X` or, symmetrically, `Tᵀ·X`): scatter over the mapped
    /// target columns (resp. matched rows), one `Dₖ` GEMM, gather over
    /// the matched rows (resp. mapped columns), and the redundancy
    /// correction over `correction_cells` slot cells
    /// (`RedundancyMatrix::slot_correction_cells`). The single authority
    /// for this formula: `CostFeatures` (what the cost model and its
    /// calibration price with) and [`FactorizedTable::lmm_op_counts`]
    /// (what pins the kernel's own counter) both call it.
    pub fn lmm_source(
        rows: usize,
        cols: usize,
        matched_rows: usize,
        mapped_cols: usize,
        correction_cells: usize,
        x_cols: usize,
    ) -> OpCounts {
        let n = x_cols as f64;
        OpCounts {
            gemm_flops: 2.0 * rows as f64 * cols as f64 * n,
            traffic_cells: (mapped_cols + matched_rows) as f64 * n,
            correction_cells: correction_cells as f64 * n,
            assembly_cells: 0.0,
            dispatch_calls: 1.0,
        }
    }

    /// Cells gathered from **one source** while materializing the target
    /// (redundant cells are skipped, not copied).
    pub fn assembly_source_cells(
        matched_rows: usize,
        mapped_cols: usize,
        redundant_cells: usize,
    ) -> f64 {
        ((matched_rows * mapped_cols) as f64 - redundant_cells as f64).max(0.0)
    }

    /// Counts of one GD-shaped epoch on a materialized `T`: two plain
    /// GEMMs, no gather/scatter traffic.
    pub fn materialized_epoch(target_cells: usize, x_cols: usize) -> OpCounts {
        OpCounts {
            gemm_flops: 4.0 * target_cells as f64 * x_cols as f64,
            // One `T·X` plus one `Tᵀ·X` — two kernel dispatches.
            dispatch_calls: 2.0,
            ..OpCounts::zero()
        }
    }
}

impl FactorizedTable {
    /// Operation counts of one compressed `T·X` (LMM) where `X`
    /// has `x_cols` columns; `Tᵀ·X` costs the same (its scatter runs over
    /// matched rows and its gather over mapped columns).
    ///
    /// Per source: scatter `X`'s mapped target-column rows into source
    /// columns, one `Dₖ` GEMM, one correction pass over the slots, and
    /// the gather of the matched target rows.
    pub fn lmm_op_counts(&self, x_cols: usize) -> OpCounts {
        let mut c = OpCounts::zero();
        for s in &self.metadata().sources {
            c = c.plus(&OpCounts::lmm_source(
                s.indicator.source_rows(),
                s.mapping.source_cols(),
                matched_rows(s.indicator.compressed()),
                s.mapping.mapped_target_cols().len(),
                s.redundancy().slot_correction_cells(&s.indicator),
                x_cols,
            ));
        }
        c
    }
}

fn matched_rows(ci: &[i64]) -> usize {
    ci.iter().filter(|&&j| j != NO_MATCH).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::running_example;

    #[test]
    fn lmm_counts_match_hand_computation() {
        // Running example: S1 is 4×3 (4 matched rows, 3 mapped cols),
        // S2 is 3×3 (3 matched rows, 3 mapped cols, 2 redundant cells).
        let ft = running_example();
        let c = ft.lmm_op_counts(2);
        assert_eq!(c.gemm_flops, 2.0 * (4.0 * 3.0 + 3.0 * 3.0) * 2.0);
        assert_eq!(c.traffic_cells, ((3.0 + 4.0) + (3.0 + 3.0)) * 2.0);
        assert_eq!(c.correction_cells, 2.0 * 2.0);
        assert_eq!(c.assembly_cells, 0.0);
        assert_eq!(c.dispatch_calls, 2.0); // one dispatch per source
    }

    #[test]
    fn materialize_counts_cover_target_and_sources() {
        // Running example: S1 gathers 4·3 cells, S2 3·3 − 2 redundant.
        assert_eq!(OpCounts::assembly_source_cells(4, 3, 0), 12.0);
        assert_eq!(OpCounts::assembly_source_cells(3, 3, 2), 7.0);
        let m = OpCounts::materialized_epoch(24, 3);
        assert_eq!(m.gemm_flops, 4.0 * 24.0 * 3.0);
        assert_eq!(m.assembly_cells, 0.0);
        assert_eq!(m.dispatch_calls, 2.0);
    }

    #[test]
    fn counts_scale_with_x_cols() {
        let ft = running_example();
        let one = ft.lmm_op_counts(1);
        let four = ft.lmm_op_counts(4);
        assert_eq!(four.gemm_flops, 4.0 * one.gemm_flops);
        assert_eq!(four.traffic_cells, 4.0 * one.traffic_cells);
        // Dispatch overhead is per call, not per operand column.
        assert_eq!(four.dispatch_calls, one.dispatch_calls);
    }

    #[test]
    fn plus_and_total_units() {
        let a = OpCounts {
            gemm_flops: 1.0,
            traffic_cells: 2.0,
            correction_cells: 3.0,
            assembly_cells: 4.0,
            dispatch_calls: 5.0,
        };
        let b = a.plus(&a);
        assert_eq!(b.total_units(), 20.0); // dispatches excluded
        assert_eq!(b.dispatch_calls, 10.0);
        assert_eq!(OpCounts::zero().total_units(), 0.0);
    }
}
