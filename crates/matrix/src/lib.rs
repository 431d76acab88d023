//! Dense linear algebra substrate for Amalur.
//!
//! The paper represents data-integration metadata as matrices and rewrites
//! ML computations into linear-algebra expressions over source tables
//! (§III–IV of *Amalur: Data Integration Meets Machine Learning*, ICDE'23).
//! This crate provides the matrix machinery those rewrites run on:
//!
//! * [`DenseMatrix`] — row-major `f64` matrices with blocked, multi-threaded
//!   matrix multiplication and the usual element-wise operations.
//! * Gather/scatter kernels ([`DenseMatrix::gather_rows`],
//!   [`DenseMatrix::scatter_rows_add`], …) that apply the *compressed*
//!   metadata vectors `CMₖ`/`CIₖ` without ever building the (very
//!   sparse) mapping and indicator matrices `Mₖ`/`Iₖ` — the
//!   physical-level implementation suggested in §III-D.
//!   [`selection_matrix`] expands a compressed vector to its dense
//!   `Mₖ`/`Iₖ` for tests and figures.
//! * A [`Workspace`] scratch-buffer pool plus `_into` kernel variants,
//!   so iterative training loops run allocation-free in steady state.
//!
//! Everything is implemented from scratch; no external BLAS is required.
//!
//! # Kernel architecture
//!
//! Dense multiplication runs through a packed, register-blocked
//! micro-kernel (`MR×NR = 4×8` register tiles over `MC/KC/NC =
//! 64/256/512` cache blocks; see `gemm.rs` for the full description).
//! Packing is stride-parameterized, so `A·B`, `Aᵀ·B` and `A·Bᵀ` all
//! share one kernel and none of them materializes a transpose. All
//! multiplication kernels — including [`DenseMatrix::gram`] — split
//! their *output rows* into disjoint chunks across threads once the
//! problem exceeds a FLOP threshold; inputs are shared read-only, so no
//! synchronization is needed beyond the scoped join.
//!
//! # `Workspace` / `_into` conventions
//!
//! Every allocation in a hot loop is a bug. The conventions:
//!
//! 1. For any producing kernel `op(&self, …) -> Result<DenseMatrix>`
//!    there is an `op_into(&self, …, out: &mut DenseMatrix)` variant
//!    that **fully overwrites** a caller-owned, correctly-shaped `out`
//!    (shape-checked, dirty buffers are fine) and never allocates for
//!    the output.
//! 2. Scratch space comes from a [`Workspace`]: `take`/`take_matrix`
//!    check zeroed buffers out of a capacity-tracked pool,
//!    `give`/`give_matrix` return them. A loop that takes and gives the
//!    same shapes every iteration allocates only on its first pass —
//!    [`Workspace::fresh_allocations`] makes that assertable in tests.
//! 3. Kernels that receive a workspace return every buffer they took
//!    before returning, even on error paths that occur after checkout.
//! 4. In-place updates (`add_assign`, [`DenseMatrix::axpy_assign`],
//!    [`DenseMatrix::sub_assign`], `scale_inplace`) are preferred over
//!    `_into` when the destination is also an operand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod error;
mod gemm;
pub mod metrics;
mod ops;
mod par;
mod select;
mod solve;
mod workspace;

pub use dense::DenseMatrix;
pub use error::{MatrixError, Result};
pub use gemm::{kernel_blocking, kernel_threads, parallel_flop_threshold};
pub use metrics::mount_metrics;
pub use par::{
    par_row_chunks, par_row_chunks_with, set_thread_budget, thread_budget, with_thread_budget,
};
pub use select::{selection_matrix, NO_MATCH};
pub use workspace::{Workspace, WorkspaceArena, WorkspaceLease};

/// Tolerance used throughout the workspace when comparing floating point
/// results of algebraically-equivalent computation strategies.
pub const EQ_TOL: f64 = 1e-9;

/// Returns `true` if `a` and `b` are equal within `tol` absolutely or
/// relatively (whichever is more permissive).
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= scale * tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-9));
        assert!(approx_eq(0.0, 1e-10, 1e-9));
        assert!(!approx_eq(0.0, 1e-3, 1e-9));
    }
}
