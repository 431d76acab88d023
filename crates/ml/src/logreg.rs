//! Binary logistic regression (gradient descent).

use crate::linreg::validate_labels;
use crate::{MlError, Result};
use amalur_factorize::LinOps;
use amalur_matrix::{DenseMatrix, Workspace};

/// Hyper-parameters for [`LogisticRegression`].
#[derive(Debug, Clone)]
pub struct LogRegConfig {
    /// Number of gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            learning_rate: 0.5,
            l2: 0.0,
        }
    }
}

/// Binary logistic regression — the mortality classifier of the paper's
/// running example ("predict the mortality (binary classification) of
/// patients", §I).
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    config: LogRegConfig,
    theta: Option<DenseMatrix>,
    loss_history: Vec<f64>,
}

#[inline]
pub(crate) fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// One row's term of the cross-entropy, `y·ln p + (1 − y)·ln(1 − p)` for
/// a label `y ∈ {0, 1}` (validated by `fit`), with `p` clamped for
/// numeric safety. Only the label's own logarithm is taken: the clamp
/// keeps both finite and negative, so the other term is `−0.0` and
/// adding it changes no bit.
#[inline]
pub(crate) fn log_likelihood(y: f64, p: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    if y == 1.0 {
        p.ln()
    } else {
        (1.0 - p).ln()
    }
}

impl LogisticRegression {
    /// Creates an unfitted model.
    pub fn new(config: LogRegConfig) -> Self {
        Self {
            config,
            theta: None,
            loss_history: Vec::new(),
        }
    }

    /// Trains on `(X, y)` with `y ∈ {0, 1}` (`n_rows × 1`).
    ///
    /// # Errors
    /// Shape mismatch, labels outside `{0, 1}`, or divergence.
    pub fn fit<L: LinOps>(&mut self, x: &L, y: &DenseMatrix) -> Result<()> {
        let mut ws = Workspace::new();
        self.fit_with_workspace(x, y, &mut ws)
    }

    /// [`Self::fit`] drawing every per-epoch intermediate from `ws`
    /// (allocation-free epochs once the pool is warm).
    ///
    /// # Errors
    /// As [`Self::fit`].
    pub fn fit_with_workspace<L: LinOps>(
        &mut self,
        x: &L,
        y: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        validate_labels(x, y)?;
        if y.as_slice().iter().any(|&v| v != 0.0 && v != 1.0) {
            return Err(MlError::InvalidConfig(
                "logistic regression labels must be 0 or 1".into(),
            ));
        }
        let n = x.n_rows() as f64;
        let labels = y.as_slice();
        let mut theta = DenseMatrix::zeros(x.n_cols(), 1);
        let mut p = ws.take_matrix(x.n_rows(), 1);
        let mut grad = ws.take_matrix(x.n_cols(), 1);
        self.loss_history.clear();
        let mut outcome = Ok(());
        for epoch in 0..self.config.epochs {
            // One pass: p = σ(Xθ), the log-likelihood folded over it,
            // p − y as the residual, then grad = Xᵀ·(p − y). Split loops
            // per block keep `exp` / `ln` out of one serial chain, and the
            // fold continues across blocks, so the loss has the bits of
            // summing the whole vector.
            let mut log_lik = 0.0;
            let mut link = |first: usize, block: &mut [f64]| {
                let ys = &labels[first..first + block.len()];
                for z in block.iter_mut() {
                    *z = sigmoid(*z);
                }
                for (&yl, &pl) in ys.iter().zip(block.iter()) {
                    log_lik += log_likelihood(yl, pl);
                }
                for (r, &yl) in block.iter_mut().zip(ys) {
                    *r -= yl;
                }
            };
            x.gradient_pass_into(&theta, &mut link, &mut p, &mut grad, ws)?;
            let loss = -log_lik / n;
            if !loss.is_finite() {
                outcome = Err(MlError::Diverged { epoch });
                break;
            }
            self.loss_history.push(loss);
            if self.config.l2 > 0.0 {
                grad.axpy_assign(self.config.l2, &theta)?;
            }
            theta.axpy_assign(-self.config.learning_rate / n, &grad)?;
        }
        ws.give_matrix(p);
        ws.give_matrix(grad);
        outcome?;
        self.theta = Some(theta);
        Ok(())
    }

    /// Predicted probabilities `σ(Xθ)`.
    ///
    /// # Errors
    /// [`MlError::NotFitted`] before `fit`, or shape mismatch.
    pub fn predict_proba<L: LinOps>(&self, x: &L) -> Result<Vec<f64>> {
        let theta = self.theta.as_ref().ok_or(MlError::NotFitted)?;
        Ok(x.mul_right(theta)?.map(sigmoid).into_vec())
    }

    /// Hard 0/1 predictions at threshold 0.5.
    ///
    /// # Errors
    /// Same as [`Self::predict_proba`].
    pub fn predict<L: LinOps>(&self, x: &L) -> Result<Vec<f64>> {
        Ok(self
            .predict_proba(x)?
            .into_iter()
            .map(|p| if p >= 0.5 { 1.0 } else { 0.0 })
            .collect())
    }

    /// The fitted coefficient vector.
    pub fn coefficients(&self) -> Option<&DenseMatrix> {
        self.theta.as_ref()
    }

    /// Per-epoch cross-entropy loss.
    pub fn loss_history(&self) -> &[f64] {
        &self.loss_history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Linearly separable data: label = 1 iff x₀ + x₁ > 0.
    fn separable(n: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = DenseMatrix::random_uniform(n, 2, -1.0, 1.0, &mut rng);
        let y: Vec<f64> = (0..n)
            .map(|i| {
                if x.get(i, 0) + x.get(i, 1) > 0.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        (x, DenseMatrix::column_vector(&y))
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = separable(300, 1);
        let mut model = LogisticRegression::new(LogRegConfig {
            epochs: 500,
            learning_rate: 1.0,
            l2: 0.0,
        });
        model.fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        let acc = crate::metrics::accuracy(&pred, y.as_slice());
        assert!(acc > 0.95, "accuracy {acc} too low");
    }

    #[test]
    fn loss_decreases() {
        let (x, y) = separable(200, 2);
        let mut model = LogisticRegression::new(LogRegConfig::default());
        model.fit(&x, &y).unwrap();
        let h = model.loss_history();
        assert!(h.first().unwrap() > h.last().unwrap());
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (x, y) = separable(100, 3);
        let mut model = LogisticRegression::new(LogRegConfig::default());
        model.fit(&x, &y).unwrap();
        for p in model.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn rejects_non_binary_labels() {
        let (x, _) = separable(10, 4);
        let y = DenseMatrix::column_vector(&[0.0, 1.0, 2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let mut model = LogisticRegression::new(LogRegConfig::default());
        assert!(matches!(
            model.fit(&x, &y).unwrap_err(),
            MlError::InvalidConfig(_)
        ));
    }

    #[test]
    fn l2_shrinks_coefficients() {
        let (x, y) = separable(200, 5);
        let mut plain = LogisticRegression::new(LogRegConfig::default());
        plain.fit(&x, &y).unwrap();
        let mut reg = LogisticRegression::new(LogRegConfig {
            l2: 10.0,
            ..LogRegConfig::default()
        });
        reg.fit(&x, &y).unwrap();
        assert!(
            reg.coefficients().unwrap().frobenius_norm()
                < plain.coefficients().unwrap().frobenius_norm()
        );
    }

    #[test]
    fn not_fitted_errors() {
        let (x, _) = separable(5, 6);
        let model = LogisticRegression::new(LogRegConfig::default());
        assert!(matches!(model.predict(&x).unwrap_err(), MlError::NotFitted));
    }

    /// The loss takes one logarithm per row; the textbook two-log
    /// expression, kept here, gives the same bits for 0 / 1 labels.
    #[test]
    fn one_log_loss_equals_two_log_expression() {
        let two_logs = |y: f64, p: f64| {
            let p = p.clamp(1e-12, 1.0 - 1e-12);
            y * p.ln() + (1.0 - y) * (1.0 - p).ln()
        };
        let extremes = [0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0];
        for y in [0.0, 1.0] {
            for p in extremes {
                assert_eq!(
                    log_likelihood(y, p).to_bits(),
                    two_logs(y, p).to_bits(),
                    "y = {y}, p = {p}"
                );
            }
            assert!(log_likelihood(y, f64::NAN).is_nan() && two_logs(y, f64::NAN).is_nan());
        }
        // A whole loss history: saturating probabilities on separable
        // data under a large step, replayed from the fitted path's θ.
        let (x, y) = separable(300, 7);
        let config = LogRegConfig {
            epochs: 40,
            learning_rate: 8.0,
            l2: 0.0,
        };
        let mut model = LogisticRegression::new(config.clone());
        model.fit(&x, &y).unwrap();
        let n = x.rows() as f64;
        let mut theta = DenseMatrix::zeros(2, 1);
        let mut want = Vec::new();
        for _ in 0..config.epochs {
            let mut p = x.matmul(&theta).unwrap();
            p.map_inplace(sigmoid);
            let sum: f64 = y
                .as_slice()
                .iter()
                .zip(p.as_slice())
                .map(|(&yi, &pi)| two_logs(yi, pi))
                .sum();
            want.push((-sum / n).to_bits());
            p.sub_assign(&y).unwrap();
            let grad = x.transpose_matmul(&p).unwrap();
            theta.axpy_assign(-config.learning_rate / n, &grad).unwrap();
        }
        let got: Vec<u64> = model.loss_history().iter().map(|l| l.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sigmoid_extremes() {
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert_eq!(sigmoid(0.0), 0.5);
    }
}
