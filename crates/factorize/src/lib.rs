//! Factorized linear algebra over data silos (§IV of the paper).
//!
//! Instead of joining source tables into the target table `T` and running
//! linear algebra on it (*materialization*), Amalur pushes computation
//! down to the sources (*factorization*) using the DI metadata matrices:
//!
//! ```text
//! T X → I₁D₁M₁ᵀX + ((I₂D₂M₂ᵀ) ∘ R₂) X            (Amalur, Eq. 2)
//! T X → I₁(D₁X[1:c_S1,]) + I₂(D₂X[c_S1+1:c_T,])    (Morpheus, Eq. 1)
//! ```
//!
//! The central type is [`FactorizedTable`]: source data matrices `Dₖ`
//! plus [`DiMetadata`]. Its operators — `T·X`
//! ([`FactorizedTable::lmm_into`]), `Tᵀ·X`
//! ([`FactorizedTable::lmm_transpose_into`]), the one-hot class sums,
//! the Gram matrix, column sums and row norms — each have one body: the
//! gather/scatter kernels over the compressed vectors `CMₖ`/`CIₖ`, with
//! a structured redundancy correction that never materializes the
//! `r_T × c_T` intermediates. This is Amalur's physical-level execution
//! (§III-D).
//!
//! The [`mod@reference`] module keeps the two rules that execution is
//! measured against: the literal Equation (2) (dense `Tₖ = IₖDₖMₖᵀ`
//! gathers, Hadamard with `Rₖ`) and the Equation (1) baseline, which is
//! correct only when sources do not overlap and refuses a table whose
//! sources do (the paper's motivation for Eq. 2).
//!
//! The [`LinOps`] trait abstracts "a design matrix you can train on" so
//! ML algorithms run unchanged over materialized ([`DenseMatrix`]) or
//! factorized ([`FactorizedTable`]) data — the paper's guarantee that
//! "factorized learning does not affect model training accuracy".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counts;
mod error;
mod linops;
pub mod metrics;
pub mod reference;
mod rewrite;
mod table;

pub use counts::OpCounts;
pub use error::{FactorizeError, Result};
pub use linops::LinOps;
pub use metrics::mount_metrics;
pub use table::FactorizedTable;

pub use amalur_integration::DiMetadata;
pub use amalur_matrix::DenseMatrix;
