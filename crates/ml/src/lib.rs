//! ML models over the [`LinOps`] abstraction.
//!
//! §IV of the paper: "factorized learning does not affect model training
//! accuracy but often helps to improve the training efficiency". The
//! algorithms here are written once against [`LinOps`] and therefore run
//! bit-for-bit identically on
//!
//! * a materialized target table ([`amalur_matrix::DenseMatrix`]), or
//! * a factorized one ([`amalur_factorize::FactorizedTable`]),
//!
//! which the integration tests verify. The model set follows the
//! evaluation suite of Morpheus (Chen et al., PVLDB'17 — reference \[27\]
//! of the paper): linear regression, logistic regression, K-Means and
//! Gaussian non-negative matrix factorization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gnmf;
mod kmeans;
mod linreg;
mod logreg;
pub mod metrics;
#[cfg(test)]
mod reference;

pub use error::{MlError, Result};
pub use gnmf::{Gnmf, GnmfConfig};
pub use kmeans::{KMeans, KMeansConfig};
pub use linreg::{LinRegConfig, LinearRegression};
pub use logreg::{LogRegConfig, LogisticRegression};

pub use amalur_factorize::LinOps;
