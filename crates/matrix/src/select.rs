//! Gather / scatter kernels for compressed metadata vectors.
//!
//! §III of the paper defines *compressed* mapping and indicator matrices
//! `CMₖ` and `CIₖ`: integer vectors whose entry `i` holds the source
//! column/row mapped to target column/row `i`, or `-1` when there is none.
//! Because every full matrix `Mₖ`/`Iₖ` built from them is a (partial)
//! selection matrix, multiplying by it is equivalent to a gather or a
//! scatter — these kernels implement exactly that, turning `O(n²)` sparse
//! multiplications into `O(n)` copies:
//!
//! * `Iₖ · D`      → [`DenseMatrix::gather_rows`]  (rows of `D` picked by `CIₖ`)
//! * `Iₖᵀ · X`     → [`DenseMatrix::scatter_rows_add`]
//! * `D · Mₖᵀ`     → [`DenseMatrix::gather_cols`]  (columns picked by `CMₖ`)
//! * `Mₖᵀ · X`     → [`DenseMatrix::scatter_rows_add`] with `CMₖ`
//! * `Mₖ · Y`      → [`DenseMatrix::gather_rows`] with `CMₖ`

use crate::{DenseMatrix, MatrixError, Result};

/// The sentinel value in compressed metadata vectors meaning "no match".
pub const NO_MATCH: i64 = -1;

impl DenseMatrix {
    /// Builds a new matrix whose row `i` is `self`'s row `idx[i]`, or a
    /// zero row when `idx[i] < 0`.
    ///
    /// Implements `S · self` where `S` is the selection matrix with
    /// `S[i, idx[i]] = 1`.
    ///
    /// # Errors
    /// Returns an error if any non-negative index is out of range.
    pub fn gather_rows(&self, idx: &[i64]) -> Result<DenseMatrix> {
        let cols = self.cols();
        let mut out = DenseMatrix::zeros(idx.len(), cols);
        for (i, &src) in idx.iter().enumerate() {
            if src < 0 {
                continue;
            }
            let src = src as usize;
            if src >= self.rows() {
                return Err(MatrixError::IndexOutOfBounds {
                    index: (src, 0),
                    shape: self.shape(),
                });
            }
            out.row_mut(i)
                .copy_from_slice(&self.as_slice()[src * cols..(src + 1) * cols]);
        }
        Ok(out)
    }

    /// Accumulates `self`'s row `i` into output row `idx[i]` (skipping
    /// negatives). Implements `Sᵀ · self` for the same selection matrix as
    /// [`Self::gather_rows`].
    ///
    /// # Errors
    /// Returns an error if `idx.len() != self.rows()` or an index is out of
    /// range for `out_rows`.
    pub fn scatter_rows_add(&self, idx: &[i64], out_rows: usize) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(out_rows, self.cols());
        self.scatter_rows_add_into(idx, &mut out)?;
        Ok(out)
    }

    /// [`Self::scatter_rows_add`] into a caller-owned output matrix
    /// (fully overwritten; `out.rows()` plays the role of `out_rows`).
    ///
    /// # Errors
    /// As [`Self::scatter_rows_add`], plus a column-count mismatch
    /// between `self` and `out`.
    pub fn scatter_rows_add_into(&self, idx: &[i64], out: &mut DenseMatrix) -> Result<()> {
        if idx.len() != self.rows() || out.cols() != self.cols() {
            return Err(MatrixError::DimensionMismatch {
                op: "scatter_rows_add",
                lhs: self.shape(),
                rhs: if idx.len() != self.rows() {
                    (idx.len(), 1)
                } else {
                    out.shape()
                },
            });
        }
        let cols = self.cols();
        let out_rows = out.rows();
        // Every index is checked before the first write, so an error
        // leaves `out` as it was.
        if let Some(&dst) = idx.iter().find(|&&d| d >= 0 && d as usize >= out_rows) {
            return Err(MatrixError::IndexOutOfBounds {
                index: (dst as usize, 0),
                shape: (out_rows, cols),
            });
        }
        out.as_mut_slice().fill(0.0);
        // Column fast path: one indexed add per row.
        if cols == 1 {
            let dst_col = out.as_mut_slice();
            for (&v, &dst) in self.as_slice().iter().zip(idx) {
                if dst >= 0 {
                    dst_col[dst as usize] += v;
                }
            }
            return Ok(());
        }
        for (i, &dst) in idx.iter().enumerate() {
            if dst < 0 {
                continue;
            }
            let dst = dst as usize;
            let src_row = &self.as_slice()[i * cols..(i + 1) * cols];
            let dst_row = &mut out.as_mut_slice()[dst * cols..(dst + 1) * cols];
            for (d, &s) in dst_row.iter_mut().zip(src_row) {
                *d += s;
            }
        }
        Ok(())
    }

    /// Builds a new matrix whose column `j` is `self`'s column `idx[j]`,
    /// or a zero column when `idx[j] < 0`.
    ///
    /// Implements `self · Sᵀ` where `S[j, idx[j]] = 1`.
    pub fn gather_cols(&self, idx: &[i64]) -> Result<DenseMatrix> {
        let rows = self.rows();
        let in_cols = self.cols();
        let out_cols = idx.len();
        for &src in idx {
            if src >= 0 && src as usize >= in_cols {
                return Err(MatrixError::IndexOutOfBounds {
                    index: (0, src as usize),
                    shape: self.shape(),
                });
            }
        }
        let mut out = DenseMatrix::zeros(rows, out_cols);
        for i in 0..rows {
            let src_row = &self.as_slice()[i * in_cols..(i + 1) * in_cols];
            let dst_row = &mut out.as_mut_slice()[i * out_cols..(i + 1) * out_cols];
            for (j, &src) in idx.iter().enumerate() {
                if src >= 0 {
                    dst_row[j] = src_row[src as usize];
                }
            }
        }
        Ok(out)
    }

    /// Accumulates `self`'s column `j` into output column `idx[j]`
    /// (skipping negatives). Implements `self · S` for the selection matrix
    /// of [`Self::gather_cols`].
    pub fn scatter_cols_add(&self, idx: &[i64], out_cols: usize) -> Result<DenseMatrix> {
        if idx.len() != self.cols() {
            return Err(MatrixError::DimensionMismatch {
                op: "scatter_cols_add",
                lhs: self.shape(),
                rhs: (1, idx.len()),
            });
        }
        let rows = self.rows();
        let in_cols = self.cols();
        for &dst in idx {
            if dst >= 0 && dst as usize >= out_cols {
                return Err(MatrixError::IndexOutOfBounds {
                    index: (0, dst as usize),
                    shape: (rows, out_cols),
                });
            }
        }
        let mut out = DenseMatrix::zeros(rows, out_cols);
        for i in 0..rows {
            let src_row = &self.as_slice()[i * in_cols..(i + 1) * in_cols];
            let dst_row = &mut out.as_mut_slice()[i * out_cols..(i + 1) * out_cols];
            for (j, &dst) in idx.iter().enumerate() {
                if dst >= 0 {
                    dst_row[dst as usize] += src_row[j];
                }
            }
        }
        Ok(out)
    }
}

/// Builds the full binary selection matrix for a compressed vector:
/// `out[i, idx[i]] = 1` with shape `idx.len() × inner_dim`.
///
/// This is the expansion from `CMₖ` to `Mₖ` (Definition III.1) and from
/// `CIₖ` to `Iₖ` (Definition III.3).
pub fn selection_matrix(idx: &[i64], inner_dim: usize) -> Result<DenseMatrix> {
    let mut out = DenseMatrix::zeros(idx.len(), inner_dim);
    for (i, &j) in idx.iter().enumerate() {
        if j < 0 {
            continue;
        }
        let j = j as usize;
        if j >= inner_dim {
            return Err(MatrixError::IndexOutOfBounds {
                index: (i, j),
                shape: (idx.len(), inner_dim),
            });
        }
        out.set(i, j, 1.0);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap()
    }

    #[test]
    fn gather_rows_basic() {
        let g = sample().gather_rows(&[2, NO_MATCH, 0, 0]).unwrap();
        assert_eq!(g.shape(), (4, 3));
        assert_eq!(g.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(g.row(1), &[0.0, 0.0, 0.0]);
        assert_eq!(g.row(2), &[1.0, 2.0, 3.0]);
        assert_eq!(g.row(3), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn gather_rows_out_of_range() {
        assert!(sample().gather_rows(&[3]).is_err());
    }

    #[test]
    fn scatter_rows_add_accumulates_duplicates() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let s = m.scatter_rows_add(&[0, 0, NO_MATCH], 2).unwrap();
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn scatter_rows_add_into_overwrites_dirty_buffer() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let mut out = DenseMatrix::filled(3, 2, 9.0);
        m.scatter_rows_add_into(&[2, 2], &mut out).unwrap();
        assert_eq!(out.row(0), &[0.0, 0.0]);
        assert_eq!(out.row(2), &[3.0, 3.0]);
        let mut wrong_cols = DenseMatrix::zeros(3, 1);
        assert!(m.scatter_rows_add_into(&[2, 2], &mut wrong_cols).is_err());
    }

    #[test]
    fn scatter_rows_add_into_leaves_out_unchanged_on_a_bad_index() {
        // The bad index sits on the last row, after rows that would
        // already have been accumulated; one- and two-column operands.
        for cols in [1, 2] {
            let m = DenseMatrix::filled(3, cols, 1.5);
            let mut out = DenseMatrix::filled(2, cols, -7.25);
            let err = m.scatter_rows_add_into(&[0, 1, 2], &mut out);
            assert!(matches!(err, Err(MatrixError::IndexOutOfBounds { .. })));
            assert_eq!(out, DenseMatrix::filled(2, cols, -7.25), "cols {cols}");
        }
    }

    #[test]
    fn scatter_rows_add_validates() {
        let m = DenseMatrix::zeros(2, 2);
        assert!(m.scatter_rows_add(&[0], 2).is_err()); // wrong idx length
        assert!(m.scatter_rows_add(&[0, 5], 2).is_err()); // out of range
    }

    #[test]
    fn gather_cols_basic() {
        let g = sample().gather_cols(&[1, NO_MATCH, 1, 0]).unwrap();
        assert_eq!(g.shape(), (3, 4));
        assert_eq!(g.row(0), &[2.0, 0.0, 2.0, 1.0]);
        assert_eq!(g.row(2), &[8.0, 0.0, 8.0, 7.0]);
        assert!(sample().gather_cols(&[9]).is_err());
    }

    #[test]
    fn scatter_cols_add_basic() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0, 4.0]]).unwrap();
        let s = m.scatter_cols_add(&[1, 1, NO_MATCH], 3).unwrap();
        assert_eq!(s.row(0), &[0.0, 3.0, 0.0]);
        assert!(m.scatter_cols_add(&[0, 1], 3).is_err());
        assert!(m.scatter_cols_add(&[0, 1, 7], 3).is_err());
    }

    #[test]
    fn selection_matrix_expansion() {
        // CM₁ from Figure 4a: target columns (m,a,hr,o) ← S1 columns (m,a,hr)
        let cm1 = [0, 1, 2, NO_MATCH];
        let m1 = selection_matrix(&cm1, 3).unwrap();
        assert_eq!(m1.shape(), (4, 3));
        assert_eq!(m1.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(m1.row(1), &[0.0, 1.0, 0.0]);
        assert_eq!(m1.row(2), &[0.0, 0.0, 1.0]);
        assert_eq!(m1.row(3), &[0.0, 0.0, 0.0]);
        assert!(selection_matrix(&[5], 3).is_err());
    }

    #[test]
    fn gather_equals_selection_matmul() {
        // gather_rows(idx) == selection_matrix(idx) * self
        let m = sample();
        let idx = [1, NO_MATCH, 2, 1];
        let fast = m.gather_rows(&idx).unwrap();
        let sel = selection_matrix(&idx, 3).unwrap();
        let slow = sel.matmul(&m).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn scatter_equals_selection_transpose_matmul() {
        // scatter_rows_add(idx, n) == selection_matrix(idx, n)ᵀ * self
        let m = sample();
        let idx = [1, NO_MATCH, 1];
        let fast = m.scatter_rows_add(&idx, 2).unwrap();
        let sel = selection_matrix(&idx, 2).unwrap();
        let slow = sel.transpose().matmul(&m).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn gather_cols_equals_matmul_with_selection_transpose() {
        // gather_cols(idx) == self * selection_matrix(idx, cols)ᵀ
        let m = sample();
        let idx = [2, 0, NO_MATCH];
        let fast = m.gather_cols(&idx).unwrap();
        let sel = selection_matrix(&idx, 3).unwrap();
        let slow = m.matmul(&sel.transpose()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    proptest! {
        #[test]
        fn prop_gather_scatter_match_selection_algebra(
            rows in 1usize..8, cols in 1usize..8, out in 1usize..8,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            use rand::Rng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = DenseMatrix::random_uniform(rows, cols, -2.0, 2.0, &mut rng);
            // Random index vector into rows, with ~25% no-match entries.
            let idx: Vec<i64> = (0..out)
                .map(|_| {
                    if rng.gen_bool(0.25) { NO_MATCH } else { rng.gen_range(0..rows) as i64 }
                })
                .collect();
            let sel = selection_matrix(&idx, rows).unwrap();
            let fast = m.gather_rows(&idx).unwrap();
            let slow = sel.matmul(&m).unwrap();
            prop_assert!(fast.approx_eq(&slow, 1e-12));

            // Scatter from the gathered result back.
            let fast2 = fast.scatter_rows_add(&idx, rows).unwrap();
            let slow2 = sel.transpose().matmul(&fast).unwrap();
            prop_assert!(fast2.approx_eq(&slow2, 1e-12));
        }
    }
}
