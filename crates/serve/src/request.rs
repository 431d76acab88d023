//! Public request/response types and the ticket clients wait on.

use crate::error::{Result, ServeError};
use amalur_matrix::DenseMatrix;
use amalur_ml::LinRegConfig;
use std::sync::mpsc::Receiver;

/// A prediction request: `T · X` against a catalog-registered
/// factorized dataset, where each column of `features` is one scoring
/// vector (`c_T × k`, usually `k = 1`).
#[derive(Debug, Clone)]
pub struct PredictRequest {
    /// Catalog name of the dataset.
    pub dataset: String,
    /// Pin to a specific published version; `None` = latest active.
    pub version: Option<u64>,
    /// Scoring matrix, `c_T × k`.
    pub features: DenseMatrix,
}

/// The answer to a [`PredictRequest`].
#[derive(Debug, Clone)]
pub struct PredictResponse {
    /// Dataset the prediction ran against.
    pub dataset: String,
    /// Version actually used (resolved at admission).
    pub version: u64,
    /// `T · features`, `r_T × k`. Bit-identical to serving each column
    /// alone, regardless of how requests were coalesced (the
    /// column-stable GEMM contract — see the crate docs).
    pub predictions: DenseMatrix,
    /// How many requests shared the GEMM that produced this response
    /// (1 = executed alone). Observability only; never affects values.
    pub batched_with: usize,
}

/// A training request: fit linear regression on a factorized dataset.
#[derive(Debug, Clone)]
pub struct TrainRequest {
    /// Catalog name of the dataset.
    pub dataset: String,
    /// Pin to a specific published version; `None` = latest active.
    pub version: Option<u64>,
    /// Label column, `r_T × 1`.
    pub labels: DenseMatrix,
    /// Gradient-descent hyper-parameters.
    pub config: LinRegConfig,
}

/// The answer to a [`TrainRequest`].
#[derive(Debug, Clone)]
pub struct TrainResponse {
    /// Dataset the model was trained on.
    pub dataset: String,
    /// Version actually used (resolved at admission).
    pub version: u64,
    /// Fitted coefficient vector, `c_T × 1`.
    pub coefficients: DenseMatrix,
    /// Number of gradient-descent epochs actually run.
    pub epochs_run: usize,
}

/// A claim on an in-flight request's eventual response.
///
/// Returned by the non-blocking `submit_*` methods so clients can fan
/// out several requests (which is what gives busy workers something
/// to batch) before waiting on any of them.
pub struct Ticket<T> {
    pub(crate) rx: Receiver<Result<T>>,
}

impl<T> Ticket<T> {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    /// Whatever the worker reported, or [`ServeError::WorkerLost`] if
    /// the executing worker vanished.
    pub fn wait(self) -> Result<T> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)?
    }
}
