//! The [`LinOps`] abstraction: one training loop, two execution regimes.
//!
//! ML algorithms in `amalur-ml` are written against this trait, so the
//! *same* gradient-descent code trains on a materialized target table
//! (a [`DenseMatrix`]) or a [`FactorizedTable`] — which is how the paper
//! can claim factorization "does not affect model training accuracy"
//! while changing the execution strategy underneath.
//!
//! Two operators are composites, each kept to the bits of the products
//! it stands for:
//!
//! * [`LinOps::gradient_pass_into`] — a GD epoch's `link(T·θ)` then
//!   `Tᵀ·r`. Default: `mul_right_into`, the link once over the whole
//!   vector, `t_mul_into`. `DenseMatrix` overrides it with one pass over
//!   the table in blocks of 8 rows (`gradient_pass_blocks_into`),
//!   bit-identical to the default; `FactorizedTable` keeps the default
//!   (`lmm_into` then `lmm_transpose_into`). The link takes a block
//!   (`FnMut(usize, &mut [f64])`) on every backend, because GLM links
//!   that call `exp` / `ln` are fastest as split loops over a block —
//!   a per-row link on the default path cost `train_factorized` 6–14 %.
//! * [`LinOps::class_sums_into`] — a Lloyd update's `Tᵀ·A` for the
//!   one-hot assignment matrix `A`, which no backend builds.
//!   `DenseMatrix` adds each row into its class's sum in one pass;
//!   `FactorizedTable` scatters one `1.0` per target row into its
//!   sources' stacked rows and runs the `Tᵀ·X` rewrite's corrections and
//!   `Dₖᵀ` products, an identity base through the dense class sums. Both
//!   are bit-identical to `t_mul_into(A)` on finite tables (a non-finite
//!   cell of a dense table or an identity base stays in its own class's
//!   sum instead of spreading NaN through `∞·0`).
//!
//! Both take `&mut dyn` / slice arguments, so the trait stays usable as
//! a trait object.

use crate::table::FactorizedTable;
use crate::{FactorizeError, Result, Strategy};
use amalur_matrix::{DenseMatrix, Workspace};

/// A design matrix that supports the operators ML training needs.
pub trait LinOps {
    /// Number of examples (rows of the design matrix).
    fn n_rows(&self) -> usize;

    /// Number of features (columns of the design matrix).
    fn n_cols(&self) -> usize;

    /// `T · x` where `x` is `n_cols × k` — the prediction operator.
    ///
    /// # Errors
    /// Shape mismatch.
    fn mul_right(&self, x: &DenseMatrix) -> Result<DenseMatrix>;

    /// `Tᵀ · x` where `x` is `n_rows × k` — the gradient operator.
    ///
    /// # Errors
    /// Shape mismatch.
    fn t_mul(&self, x: &DenseMatrix) -> Result<DenseMatrix>;

    /// [`Self::mul_right`] written into the caller-owned `out`
    /// (`n_rows × k`, fully overwritten), drawing any per-source scratch
    /// from `ws`. The allocation-free variant gradient-descent loops
    /// call every epoch (see the `amalur-matrix` crate docs for the
    /// `Workspace`/`_into` conventions).
    ///
    /// # Errors
    /// Shape mismatch of `x` or `out`.
    fn mul_right_into(
        &self,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()>;

    /// [`Self::t_mul`] written into the caller-owned `out`
    /// (`n_cols × k`, fully overwritten), drawing scratch from `ws`.
    ///
    /// # Errors
    /// Shape mismatch of `x` or `out`.
    fn t_mul_into(&self, x: &DenseMatrix, out: &mut DenseMatrix, ws: &mut Workspace) -> Result<()>;

    /// One gradient-descent epoch's table work: `resid = link(T·θ)`, then
    /// `grad = Tᵀ·resid`, with `θ` `n_cols × 1` and both outputs fully
    /// overwritten. `link(first_row, block)` turns the linear predictors
    /// of rows `first_row..first_row + block.len()` into residuals in
    /// place; it sees every row exactly once, in ascending order, so a
    /// loss it folds continues one left fold across calls.
    ///
    /// The default runs [`Self::mul_right_into`], the link once over the
    /// whole vector, then [`Self::t_mul_into`]. `DenseMatrix` overrides it
    /// with one pass over the table in blocks of rows (bit-identical to
    /// the default); `FactorizedTable` keeps the default.
    ///
    /// # Errors
    /// Shape mismatch of `theta`, `resid` or `grad`.
    fn gradient_pass_into(
        &self,
        theta: &DenseMatrix,
        link: &mut dyn FnMut(usize, &mut [f64]),
        resid: &mut DenseMatrix,
        grad: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        if theta.cols() != 1 {
            return Err(FactorizeError::OperandMismatch {
                op: "gradient_pass_into",
                expected: (self.n_cols(), 1),
                found: theta.shape(),
            });
        }
        self.mul_right_into(theta, resid, ws)?;
        link(0, resid.as_mut_slice());
        self.t_mul_into(resid, grad, ws)
    }

    /// Per-class column sums `Tᵀ·A` (`n_cols × k`, `k = out.cols()`,
    /// fully overwritten) for the `n_rows × k` one-hot matrix `A` of
    /// `class` — a Lloyd update's centroid numerators — without building
    /// `A`; bit-identical to [`Self::t_mul_into`] of `A` on finite tables
    /// (see `DenseMatrix::class_sums_into` and
    /// `FactorizedTable::class_sums_into` for the non-finite case).
    ///
    /// # Errors
    /// `class.len() != n_rows`, a class `≥ k`, or `out` not `n_cols × k`.
    fn class_sums_into(
        &self,
        class: &[usize],
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()>;

    /// Gram matrix `TᵀT` (`n_cols × n_cols`) — the normal-equations
    /// operator for closed-form solvers.
    fn gram_matrix(&self) -> DenseMatrix;

    /// Column sums `1ᵀT` — used for centering and K-Means updates.
    fn column_sums(&self) -> Vec<f64>;

    /// Per-row squared norms `‖T[i,:]‖²` — used by K-Means distances and
    /// GNMF loss.
    fn row_norms_sq(&self) -> Vec<f64>;
}

impl LinOps for DenseMatrix {
    fn n_rows(&self) -> usize {
        self.rows()
    }

    fn n_cols(&self) -> usize {
        self.cols()
    }

    fn mul_right(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        Ok(self.matmul(x)?)
    }

    fn t_mul(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        Ok(self.transpose_matmul(x)?)
    }

    fn mul_right_into(
        &self,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
        _ws: &mut Workspace,
    ) -> Result<()> {
        Ok(self.matmul_into(x, out)?)
    }

    fn t_mul_into(
        &self,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
        _ws: &mut Workspace,
    ) -> Result<()> {
        Ok(self.transpose_matmul_into(x, out)?)
    }

    fn gradient_pass_into(
        &self,
        theta: &DenseMatrix,
        link: &mut dyn FnMut(usize, &mut [f64]),
        resid: &mut DenseMatrix,
        grad: &mut DenseMatrix,
        _ws: &mut Workspace,
    ) -> Result<()> {
        Ok(self.gradient_pass_blocks_into(theta, link, resid, grad)?)
    }

    fn class_sums_into(
        &self,
        class: &[usize],
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        Ok(DenseMatrix::class_sums_into(self, class, out, ws)?)
    }

    fn gram_matrix(&self) -> DenseMatrix {
        self.gram()
    }

    fn column_sums(&self) -> Vec<f64> {
        self.col_sums()
    }

    fn row_norms_sq(&self) -> Vec<f64> {
        // By index: `row_iter` yields no rows when there are no columns.
        (0..self.rows())
            .map(|i| self.row(i).iter().map(|v| v * v).sum())
            .collect()
    }
}

impl LinOps for FactorizedTable {
    fn n_rows(&self) -> usize {
        self.target_shape().0
    }

    fn n_cols(&self) -> usize {
        self.target_shape().1
    }

    fn mul_right(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.lmm(x, Strategy::Compressed)
    }

    fn t_mul(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.lmm_transpose(x, Strategy::Compressed)
    }

    fn mul_right_into(
        &self,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        self.lmm_into(x, out, ws)
    }

    fn t_mul_into(&self, x: &DenseMatrix, out: &mut DenseMatrix, ws: &mut Workspace) -> Result<()> {
        self.lmm_transpose_into(x, out, ws)
    }

    fn class_sums_into(
        &self,
        class: &[usize],
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        FactorizedTable::class_sums_into(self, class, out, ws)
    }

    fn gram_matrix(&self) -> DenseMatrix {
        self.gram()
    }

    fn column_sums(&self) -> Vec<f64> {
        self.col_sums()
    }

    fn row_norms_sq(&self) -> Vec<f64> {
        FactorizedTable::row_norms_sq(self)
    }
}

/// Shared-ownership delegation: serving workers train on
/// `Arc<FactorizedTable>` (one copy of the data, many concurrent
/// readers) through the same generic training loops.
impl<L: LinOps> LinOps for std::sync::Arc<L> {
    fn n_rows(&self) -> usize {
        (**self).n_rows()
    }

    fn n_cols(&self) -> usize {
        (**self).n_cols()
    }

    fn mul_right(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        (**self).mul_right(x)
    }

    fn t_mul(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        (**self).t_mul(x)
    }

    fn mul_right_into(
        &self,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        (**self).mul_right_into(x, out, ws)
    }

    fn t_mul_into(&self, x: &DenseMatrix, out: &mut DenseMatrix, ws: &mut Workspace) -> Result<()> {
        (**self).t_mul_into(x, out, ws)
    }

    fn gradient_pass_into(
        &self,
        theta: &DenseMatrix,
        link: &mut dyn FnMut(usize, &mut [f64]),
        resid: &mut DenseMatrix,
        grad: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        (**self).gradient_pass_into(theta, link, resid, grad, ws)
    }

    fn class_sums_into(
        &self,
        class: &[usize],
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        (**self).class_sums_into(class, out, ws)
    }

    fn gram_matrix(&self) -> DenseMatrix {
        (**self).gram_matrix()
    }

    fn column_sums(&self) -> Vec<f64> {
        (**self).column_sums()
    }

    fn row_norms_sq(&self) -> Vec<f64> {
        (**self).row_norms_sq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::{figure2d_target, running_example};

    /// A generic function over LinOps must produce identical results for
    /// the materialized and factorized representations.
    fn predict<L: LinOps>(data: &L, theta: &DenseMatrix) -> DenseMatrix {
        data.mul_right(theta).unwrap()
    }

    #[test]
    fn trait_object_dimensions() {
        let ft = running_example();
        let t = figure2d_target();
        assert_eq!(ft.n_rows(), t.n_rows());
        assert_eq!(ft.n_cols(), t.n_cols());
    }

    #[test]
    fn generic_code_agrees_across_backends() {
        let ft = running_example();
        let t = figure2d_target();
        let theta = DenseMatrix::from_rows(&[vec![0.1], vec![0.2], vec![-0.3], vec![0.4]]).unwrap();
        let via_fact = predict(&ft, &theta);
        let via_mat = predict(&t, &theta);
        assert!(via_fact.approx_eq(&via_mat, 1e-9));

        let r = DenseMatrix::ones(6, 1);
        assert!(ft.t_mul(&r).unwrap().approx_eq(&t.t_mul(&r).unwrap(), 1e-9));
        assert!(ft.gram_matrix().approx_eq(&t.gram_matrix(), 1e-9));
        for (a, b) in ft.column_sums().iter().zip(t.column_sums()) {
            assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in LinOps::row_norms_sq(&ft).iter().zip(t.row_norms_sq()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn arc_wrapper_delegates_without_cloning_data() {
        let ft = std::sync::Arc::new(running_example());
        let theta = DenseMatrix::from_rows(&[vec![0.1], vec![0.2], vec![-0.3], vec![0.4]]).unwrap();
        // Same bits through the Arc as through the table directly.
        let direct = predict(&*ft, &theta);
        let shared = predict(&ft, &theta);
        assert_eq!(direct.as_slice(), shared.as_slice());
        assert_eq!(ft.n_rows(), 6);
        let mut ws = Workspace::new();
        let mut out = DenseMatrix::zeros(ft.n_rows(), 1);
        ft.mul_right_into(&theta, &mut out, &mut ws).unwrap();
        assert_eq!(out.as_slice(), direct.as_slice());
    }

    #[test]
    fn dyn_compatible() {
        // The trait must stay usable as a trait object for the optimizer.
        let t = figure2d_target();
        let obj: &dyn LinOps = &t;
        assert_eq!(obj.n_rows(), 6);
    }

    /// The fused epoch and the class sums: the dense and factorized
    /// implementations agree, through trait objects, and reject the same
    /// bad operands.
    #[test]
    fn fused_operators_agree_across_backends() {
        let ft = running_example();
        let t = figure2d_target();
        let theta = DenseMatrix::from_rows(&[vec![0.1], vec![0.2], vec![-0.3], vec![0.4]]).unwrap();
        let y = [1.0, -2.0, 0.5, 3.0, 0.0, 1.5];
        let class = [0, 2, 1, 0, 2, 2];
        let mut ws = Workspace::new();
        let mut run = |x: &dyn LinOps| {
            let (mut resid, mut grad) = (DenseMatrix::zeros(6, 1), DenseMatrix::zeros(4, 1));
            let mut sq = 0.0;
            let mut link = |first: usize, block: &mut [f64]| {
                for (r, &yl) in block.iter_mut().zip(&y[first..]) {
                    *r -= yl;
                    sq += *r * *r;
                }
            };
            x.gradient_pass_into(&theta, &mut link, &mut resid, &mut grad, &mut ws)
                .unwrap();
            let mut sums = DenseMatrix::filled(4, 3, f64::NAN);
            x.class_sums_into(&class, &mut sums, &mut ws).unwrap();
            (resid, grad, sq, sums)
        };
        let (dense, fact) = (run(&t), run(&ft));
        assert!(dense.0.approx_eq(&fact.0, 1e-9));
        assert!(dense.1.approx_eq(&fact.1, 1e-9));
        assert!((dense.2 - fact.2).abs() < 1e-9);
        assert!(dense.3.approx_eq(&fact.3, 1e-9));
        let pred = t.mul_right(&theta).unwrap();
        let resid: Vec<f64> = pred
            .as_slice()
            .iter()
            .zip(&y)
            .map(|(p, yl)| p - yl)
            .collect();
        assert_eq!(dense.0.as_slice(), &resid[..]);
        assert_eq!(dense.3.get(2, 2), 58.0); // Sam's heart rate alone

        for x in [&t as &dyn LinOps, &ft] {
            let (mut resid, mut grad) = (DenseMatrix::zeros(6, 1), DenseMatrix::zeros(4, 1));
            let wide = DenseMatrix::zeros(4, 2);
            assert!(x
                .gradient_pass_into(&wide, &mut |_, _| {}, &mut resid, &mut grad, &mut ws)
                .is_err());
            let mut sums = DenseMatrix::zeros(4, 3);
            assert!(x.class_sums_into(&class[..5], &mut sums, &mut ws).is_err());
            assert!(x
                .class_sums_into(&[0, 1, 2, 3, 0, 0], &mut sums, &mut ws)
                .is_err());
            let mut short = DenseMatrix::zeros(3, 3);
            assert!(x.class_sums_into(&class, &mut short, &mut ws).is_err());
        }
    }

    /// One norm per row when there are no columns to take it over: a
    /// dense `m × 0` table, a factorized table with no features, and a
    /// key-only satellite beside a base with three.
    #[test]
    fn row_norms_have_one_entry_per_row_without_columns() {
        assert_eq!(DenseMatrix::zeros(5, 0).row_norms_sq(), vec![0.0; 5]);
        for cols_s1 in [0, 3] {
            let spec = amalur_data::TwoSourceSpec {
                rows_s1: 40,
                cols_s1,
                rows_s2: 8,
                cols_s2: 0,
                shared_cols: 0,
                target_redundancy: true,
                row_coverage: 1.0,
                source_redundancy: false,
                seed: 9,
            };
            let (md, data) = amalur_data::generate_two_source(&spec).unwrap();
            let ft = FactorizedTable::new(md, data).unwrap();
            let want = ft.materialize().row_norms_sq();
            assert_eq!(want.len(), 40);
            assert_eq!(LinOps::row_norms_sq(&ft), want, "{cols_s1} base columns");
        }
    }
}
