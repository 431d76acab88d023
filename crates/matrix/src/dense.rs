//! Row-major dense `f64` matrix.

use crate::{approx_eq, MatrixError, Result};
use rand::distributions::Distribution;
use rand::Rng;
use std::fmt;

/// A dense, row-major matrix of `f64` values.
///
/// This is the workhorse type of the workspace: source tables in matrix
/// form (`Dₖ` in the paper), model parameters, gradients and intermediate
/// results are all `DenseMatrix` values.
///
/// The storage is a single contiguous `Vec<f64>` of length `rows * cols`;
/// element `(i, j)` lives at offset `i * cols + j`.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a matrix of the given shape where every element is `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Errors
    /// Returns [`MatrixError::InvalidBuffer`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidBuffer {
                shape: (rows, cols),
                len: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from a slice of rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(MatrixError::InvalidBuffer {
                    shape: (r, c),
                    len: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Builds a single-column matrix from a vector.
    pub fn column_vector(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Builds a single-row matrix from a vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a matrix whose entries are sampled uniformly from `[lo, hi)`.
    pub fn random_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f64,
        hi: f64,
        rng: &mut R,
    ) -> Self {
        let dist = rand::distributions::Uniform::new(lo, hi);
        let data = (0..rows * cols).map(|_| dist.sample(rng)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Changes the row count in place, keeping the leading rows: surplus
    /// rows are dropped, new rows are zero. Shrinking keeps the buffer's
    /// capacity, so shrinking and growing back never allocates — which
    /// lets an `_into` kernel run a GEMM into the leading rows of a
    /// taller workspace matrix.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0.0);
        self.rows = rows;
    }

    /// Element at `(i, j)`; panics on out-of-bounds (use [`Self::try_get`]
    /// for a checked variant).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Checked element access.
    pub fn try_get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Sets the element at `(i, j)`; panics on out-of-bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        self.transpose_into_unchecked(&mut out);
        out
    }

    /// Writes the transpose into the caller-owned `out`
    /// (`cols × rows`, fully overwritten).
    ///
    /// # Errors
    /// Shape mismatch of `out`.
    pub fn transpose_into(&self, out: &mut DenseMatrix) -> Result<()> {
        if out.shape() != (self.cols, self.rows) {
            return Err(MatrixError::DimensionMismatch {
                op: "transpose_into",
                lhs: (self.cols, self.rows),
                rhs: out.shape(),
            });
        }
        self.transpose_into_unchecked(out);
        Ok(())
    }

    /// [`Self::transpose_into`] without the output-shape validation — for
    /// internal callers that just allocated `out` with the right shape.
    fn transpose_into_unchecked(&self, out: &mut DenseMatrix) {
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                let imax = (ib + B).min(self.rows);
                let jmax = (jb + B).min(self.cols);
                for i in ib..imax {
                    for j in jb..jmax {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Extracts the sub-matrix of `row_range` × `col_range`.
    pub fn slice(
        &self,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
    ) -> Result<DenseMatrix> {
        if row_range.end > self.rows || col_range.end > self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (row_range.end, col_range.end),
                shape: self.shape(),
            });
        }
        let r = row_range.len();
        let c = col_range.len();
        let mut data = Vec::with_capacity(r * c);
        for i in row_range {
            let start = i * self.cols + col_range.start;
            data.extend_from_slice(&self.data[start..start + c]);
        }
        DenseMatrix::from_vec(r, c, data)
    }

    /// Vertically stacks `self` on top of `other`.
    pub fn vstack(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        DenseMatrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Horizontally stacks `self` to the left of `other`.
    pub fn hstack(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(other.row(i));
        }
        DenseMatrix::from_vec(self.rows, cols, data)
    }

    /// Element-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| approx_eq(a, b, tol))
    }

    /// Largest absolute element-wise difference to `other`; `None` when the
    /// shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Option<f64> {
        if self.shape() != other.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(10);
            for j in 0..show_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(i, j))?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let o = DenseMatrix::ones(3, 2);
        assert!(o.as_slice().iter().all(|&x| x == 1.0));

        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = DenseMatrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, MatrixError::InvalidBuffer { .. }));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, MatrixError::InvalidBuffer { .. }));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = DenseMatrix::zeros(3, 3);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        assert_eq!(m.try_get(1, 2).unwrap(), 7.5);
        assert!(m.try_get(3, 0).is_err());
    }

    #[test]
    fn row_and_col_access() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
        let rows: Vec<_> = m.row_iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[3.0, 4.0]);
    }

    #[test]
    fn transpose_small() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 1), 6.0);
    }

    #[test]
    fn transpose_into_overwrites_dirty_buffer() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let mut out = DenseMatrix::filled(3, 2, -1.0);
        m.transpose_into(&mut out).unwrap();
        assert_eq!(out, m.transpose());
        let mut wrong = DenseMatrix::zeros(2, 3);
        assert!(m.transpose_into(&mut wrong).is_err());
    }

    #[test]
    fn transpose_large_is_involution() {
        let mut rng = rand::thread_rng();
        let m = DenseMatrix::random_uniform(67, 41, -1.0, 1.0, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn slice_extracts_block() {
        let m = DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap();
        let s = m.slice(1..3, 0..2).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.get(0, 0), 4.0);
        assert_eq!(s.get(1, 1), 8.0);
        assert!(m.slice(0..4, 0..1).is_err());
    }

    #[test]
    fn stacking() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.get(1, 0), 3.0);

        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);

        let tall = DenseMatrix::zeros(2, 2);
        assert!(a.hstack(&tall).is_err());
        let wide = DenseMatrix::zeros(1, 3);
        assert!(a.vstack(&wide).is_err());
    }

    #[test]
    fn map_and_map_inplace() {
        let m = DenseMatrix::from_rows(&[vec![1.0, -2.0]]).unwrap();
        let abs = m.map(f64::abs);
        assert_eq!(abs.row(0), &[1.0, 2.0]);
        let mut n = m.clone();
        n.map_inplace(|x| x * 2.0);
        assert_eq!(n.row(0), &[2.0, -4.0]);
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let mut b = a.clone();
        b.set(0, 1, 2.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(a.max_abs_diff(&b).unwrap() < 1e-9);
        let c = DenseMatrix::zeros(2, 2);
        assert!(!a.approx_eq(&c, 1e-9));
        assert!(a.max_abs_diff(&c).is_none());
    }

    #[test]
    fn random_uniform_in_range() {
        let mut rng = rand::thread_rng();
        let m = DenseMatrix::random_uniform(10, 10, -0.5, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn empty_matrix() {
        let m = DenseMatrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.transpose().shape(), (5, 0));
    }

    #[test]
    fn column_and_row_vector() {
        let c = DenseMatrix::column_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
        let r = DenseMatrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
        assert_eq!(c.transpose(), r);
    }
}
