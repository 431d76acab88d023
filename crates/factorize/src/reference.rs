//! The two rules the compressed rewrite is measured against, as plain
//! functions over [`FactorizedTable`]'s public API. Neither is ever a
//! production path, and neither moves the `factorize.*` counters.
//!
//! * [`equation2_lmm`] / [`equation2_lmm_transpose`] — the literal
//!   Equation (2): form each `Tₖ = IₖDₖMₖᵀ` by dense gathers, take the
//!   Hadamard product with the dense `Rₖ` and multiply. `O(r_T·c_T)` per
//!   source; it defines what the rewrite computes.
//! * [`morpheus_lmm`] — Morpheus' Equation (1), which assumes the
//!   sources never overlap. It refuses a table whose sources do, where
//!   the rule would count the shared cells twice (the paper's reason for
//!   Equation (2)).

use crate::rewrite::check_shape;
use crate::{FactorizeError, FactorizedTable, Result};
use amalur_matrix::DenseMatrix;

/// `T̃ₖ = Tₖ ∘ Rₖ` of source `k`, dense.
fn masked_intermediate(ft: &FactorizedTable, k: usize) -> Result<DenseMatrix> {
    let r = ft.metadata().sources[k].redundancy();
    let tk = ft.intermediate(k)?;
    if r.is_all_ones() {
        return Ok(tk);
    }
    Ok(tk.hadamard(&r.to_dense())?)
}

/// `Σₖ f(T̃ₖ)` into a zeroed `rows × cols` matrix.
fn sum_masked(
    ft: &FactorizedTable,
    shape: (usize, usize),
    f: impl Fn(&DenseMatrix) -> amalur_matrix::Result<DenseMatrix>,
) -> Result<DenseMatrix> {
    let mut out = DenseMatrix::zeros(shape.0, shape.1);
    for k in 0..ft.num_sources() {
        out.add_assign(&f(&masked_intermediate(ft, k)?)?)?;
    }
    Ok(out)
}

/// `T · X = Σₖ (Tₖ ∘ Rₖ) X`, the literal Equation (2).
///
/// # Errors
/// [`FactorizeError::OperandMismatch`] when `x` is not `c_T × n`.
pub fn equation2_lmm(ft: &FactorizedTable, x: &DenseMatrix) -> Result<DenseMatrix> {
    let (rows, cols) = ft.target_shape();
    check_shape("equation2_lmm", (cols, x.cols()), x.shape())?;
    sum_masked(ft, (rows, x.cols()), |t| t.matmul(x))
}

/// `Tᵀ · X = Σₖ (Tₖ ∘ Rₖ)ᵀ X`, the transpose of Equation (2).
///
/// # Errors
/// [`FactorizeError::OperandMismatch`] when `x` is not `r_T × n`.
pub fn equation2_lmm_transpose(ft: &FactorizedTable, x: &DenseMatrix) -> Result<DenseMatrix> {
    let (rows, cols) = ft.target_shape();
    check_shape("equation2_lmm_transpose", (rows, x.cols()), x.shape())?;
    sum_masked(ft, (cols, x.cols()), |t| t.transpose_matmul(x))
}

/// `T · X = Σₖ Iₖ (Dₖ · X[columns of k])`, Morpheus' Equation (1).
///
/// # Errors
/// [`FactorizeError::UnsupportedByStrategy`] when a source overlaps an
/// earlier one (its `Rₖ` has a zero), and
/// [`FactorizeError::OperandMismatch`] when `x` is not `c_T × n`.
pub fn morpheus_lmm(ft: &FactorizedTable, x: &DenseMatrix) -> Result<DenseMatrix> {
    let (rows, cols) = ft.target_shape();
    check_shape("morpheus_lmm", (cols, x.cols()), x.shape())?;
    let mut out = DenseMatrix::zeros(rows, x.cols());
    for (s, d) in ft.metadata().sources.iter().zip(ft.source_data()) {
        let r = s.redundancy();
        if !r.is_all_ones() {
            return Err(FactorizeError::UnsupportedByStrategy(format!(
                "morpheus_lmm: rule (1) assumes disjoint sources, but source {} has {} \
                 redundant cells (Equation (2), `lmm_into`, handles them)",
                s.name,
                r.zero_count()
            )));
        }
        let xk = x.scatter_rows_add(s.mapping.compressed(), s.mapping.source_cols())?;
        out.add_assign(&d.matmul(&xk)?.gather_rows(s.indicator.compressed())?)?;
    }
    Ok(out)
}
