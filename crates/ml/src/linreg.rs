//! Linear regression (gradient descent and closed-form ridge).

use crate::{MlError, Result};
use amalur_factorize::LinOps;
use amalur_matrix::{DenseMatrix, Workspace};

/// Hyper-parameters for [`LinearRegression`].
#[derive(Debug, Clone)]
pub struct LinRegConfig {
    /// Number of gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength (ridge); 0 disables it.
    pub l2: f64,
    /// Early-stopping tolerance on the loss decrease; 0 disables it.
    pub tolerance: f64,
}

impl Default for LinRegConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            learning_rate: 0.1,
            l2: 0.0,
            tolerance: 0.0,
        }
    }
}

/// Ordinary least squares / ridge regression.
///
/// Trained either iteratively (`fit`) — every epoch is one
/// `LinOps::gradient_pass_into`: one pass over a dense table, or
/// `mul_right_into` (predictions, `FactorizedTable::lmm_into`) then
/// `t_mul_into` (gradient, `FactorizedTable::lmm_transpose_into`) when
/// the data is a `FactorizedTable` — or in closed form
/// (`fit_normal_equations`) via the factorized Gram matrix and one
/// allocating `t_mul`.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    config: LinRegConfig,
    theta: Option<DenseMatrix>,
    loss_history: Vec<f64>,
}

impl LinearRegression {
    /// Creates an unfitted model.
    pub fn new(config: LinRegConfig) -> Self {
        Self {
            config,
            theta: None,
            loss_history: Vec::new(),
        }
    }

    /// Gradient-descent training on `(X, y)`; `y` must be `n_rows × 1`.
    ///
    /// The update is `θ ← θ − α/n (Xᵀ(Xθ − y) + λθ)` from a zero
    /// initialization, making runs bit-comparable across execution
    /// backends.
    ///
    /// # Errors
    /// Shape mismatch, non-finite inputs, or divergence.
    pub fn fit<L: LinOps>(&mut self, x: &L, y: &DenseMatrix) -> Result<()> {
        let mut ws = Workspace::new();
        self.fit_with_workspace(x, y, &mut ws)
    }

    /// [`Self::fit`] drawing every per-epoch intermediate from `ws`:
    /// after the first epoch warms the pool, each epoch performs zero
    /// fresh heap allocations (assert with
    /// [`Workspace::fresh_allocations`]). Reuse one workspace across
    /// repeated fits to skip even the warm-up allocations.
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
        let n = x.n_rows() as f64;
        let labels = y.as_slice();
        let mut theta = DenseMatrix::zeros(x.n_cols(), 1);
        let mut resid = ws.take_matrix(x.n_rows(), 1);
        let mut grad = ws.take_matrix(x.n_cols(), 1);
        self.loss_history.clear();
        let mut prev_loss = f64::INFINITY;
        let mut outcome = Ok(());
        for epoch in 0..self.config.epochs {
            // One pass: resid = Xθ − y with Σ resid² folded on the way,
            // then grad = Xᵀ·resid. The squares continue one left fold
            // across blocks, so the loss has the bits of summing the
            // whole residual vector.
            let mut sq = 0.0;
            let mut link = |first: usize, block: &mut [f64]| {
                for (r, &yl) in block.iter_mut().zip(&labels[first..]) {
                    *r -= yl;
                }
                for &r in block.iter() {
                    sq += r * r;
                }
            };
            x.gradient_pass_into(&theta, &mut link, &mut resid, &mut grad, ws)?;
            let loss = sq / (2.0 * n);
            if !loss.is_finite() {
                outcome = Err(MlError::Diverged { epoch });
                break;
            }
            self.loss_history.push(loss);
            if self.config.l2 > 0.0 {
                grad.axpy_assign(self.config.l2, &theta)?;
            }
            theta.axpy_assign(-self.config.learning_rate / n, &grad)?;
            if self.config.tolerance > 0.0 && (prev_loss - loss).abs() < self.config.tolerance {
                break;
            }
            prev_loss = loss;
        }
        ws.give_matrix(resid);
        ws.give_matrix(grad);
        outcome?;
        self.theta = Some(theta);
        Ok(())
    }

    /// Closed-form training: solves `(XᵀX + λI)θ = Xᵀy` using the
    /// (factorized) Gram matrix.
    ///
    /// # Errors
    /// Shape mismatch, a singular normal-equations system,
    /// [`MlError::NonFiniteInput`] when `XᵀX` or `Xᵀy` is not finite (a
    /// NaN or ±∞ cell of `x`), or [`MlError::Diverged`] (epoch 0) when
    /// the solve overflows. On any error the model keeps its previous fit.
    pub fn fit_normal_equations<L: LinOps>(&mut self, x: &L, y: &DenseMatrix) -> Result<()> {
        validate_labels(x, y)?;
        let mut gram = x.gram_matrix();
        if self.config.l2 > 0.0 {
            for i in 0..gram.rows() {
                let v = gram.get(i, i);
                gram.set(i, i, v + self.config.l2);
            }
        }
        let xty = x.t_mul(y)?;
        if gram.has_non_finite() || xty.has_non_finite() {
            return Err(MlError::NonFiniteInput("normal-equation features"));
        }
        let theta = gram.solve(&xty)?;
        if theta.has_non_finite() {
            return Err(MlError::Diverged { epoch: 0 });
        }
        self.theta = Some(theta);
        self.loss_history.clear();
        Ok(())
    }

    /// Predicted values `Xθ`.
    ///
    /// # Errors
    /// [`MlError::NotFitted`] before `fit`, or shape mismatch.
    pub fn predict<L: LinOps>(&self, x: &L) -> Result<DenseMatrix> {
        let theta = self.theta.as_ref().ok_or(MlError::NotFitted)?;
        Ok(x.mul_right(theta)?)
    }

    /// The fitted coefficient vector.
    pub fn coefficients(&self) -> Option<&DenseMatrix> {
        self.theta.as_ref()
    }

    /// Per-epoch training loss (MSE/2).
    pub fn loss_history(&self) -> &[f64] {
        &self.loss_history
    }
}

pub(crate) fn validate_labels<L: LinOps>(x: &L, y: &DenseMatrix) -> Result<()> {
    if y.rows() != x.n_rows() {
        return Err(MlError::ShapeMismatch {
            what: "labels",
            expected: x.n_rows(),
            found: y.rows(),
        });
    }
    if y.cols() != 1 {
        return Err(MlError::ShapeMismatch {
            what: "label columns",
            expected: 1,
            found: y.cols(),
        });
    }
    if y.has_non_finite() {
        return Err(MlError::NonFiniteInput("labels"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// y = 2·x₀ − 3·x₁ + noiseless.
    fn toy_data(n: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = DenseMatrix::random_uniform(n, 2, -1.0, 1.0, &mut rng);
        let truth = DenseMatrix::from_rows(&[vec![2.0], vec![-3.0]]).unwrap();
        let y = x.matmul(&truth).unwrap();
        (x, y)
    }

    #[test]
    fn gd_recovers_true_coefficients() {
        let (x, y) = toy_data(200, 1);
        let mut model = LinearRegression::new(LinRegConfig {
            epochs: 500,
            learning_rate: 0.5,
            ..LinRegConfig::default()
        });
        model.fit(&x, &y).unwrap();
        let theta = model.coefficients().unwrap();
        assert!((theta.get(0, 0) - 2.0).abs() < 1e-3);
        assert!((theta.get(1, 0) + 3.0).abs() < 1e-3);
    }

    #[test]
    fn loss_decreases_monotonically_on_well_conditioned_data() {
        let (x, y) = toy_data(100, 2);
        let mut model = LinearRegression::new(LinRegConfig {
            epochs: 50,
            learning_rate: 0.1,
            ..LinRegConfig::default()
        });
        model.fit(&x, &y).unwrap();
        let h = model.loss_history();
        assert!(h.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn normal_equations_match_gd() {
        let (x, y) = toy_data(150, 3);
        let mut gd = LinearRegression::new(LinRegConfig {
            epochs: 2000,
            learning_rate: 0.5,
            ..LinRegConfig::default()
        });
        gd.fit(&x, &y).unwrap();
        let mut ne = LinearRegression::new(LinRegConfig::default());
        ne.fit_normal_equations(&x, &y).unwrap();
        assert!(gd
            .coefficients()
            .unwrap()
            .approx_eq(ne.coefficients().unwrap(), 1e-3));
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let (x, y) = toy_data(100, 4);
        let mut plain = LinearRegression::new(LinRegConfig::default());
        plain.fit_normal_equations(&x, &y).unwrap();
        let mut ridge = LinearRegression::new(LinRegConfig {
            l2: 50.0,
            ..LinRegConfig::default()
        });
        ridge.fit_normal_equations(&x, &y).unwrap();
        let norm = |m: &DenseMatrix| m.frobenius_norm();
        assert!(norm(ridge.coefficients().unwrap()) < norm(plain.coefficients().unwrap()));
    }

    #[test]
    fn early_stopping_truncates_history() {
        let (x, y) = toy_data(100, 5);
        let mut model = LinearRegression::new(LinRegConfig {
            epochs: 10_000,
            learning_rate: 0.5,
            tolerance: 1e-12,
            ..LinRegConfig::default()
        });
        model.fit(&x, &y).unwrap();
        assert!(model.loss_history().len() < 10_000);
    }

    #[test]
    fn predict_before_fit_errors() {
        let (x, _) = toy_data(10, 6);
        let model = LinearRegression::new(LinRegConfig::default());
        assert!(matches!(model.predict(&x).unwrap_err(), MlError::NotFitted));
    }

    #[test]
    fn label_validation() {
        let (x, _) = toy_data(10, 7);
        let mut model = LinearRegression::new(LinRegConfig::default());
        let wrong_rows = DenseMatrix::zeros(5, 1);
        assert!(matches!(
            model.fit(&x, &wrong_rows).unwrap_err(),
            MlError::ShapeMismatch { .. }
        ));
        let wrong_cols = DenseMatrix::zeros(10, 2);
        assert!(model.fit(&x, &wrong_cols).is_err());
        let mut nan = DenseMatrix::zeros(10, 1);
        nan.set(0, 0, f64::NAN);
        assert!(matches!(
            model.fit(&x, &nan).unwrap_err(),
            MlError::NonFiniteInput(_)
        ));
    }

    #[test]
    fn divergence_detected() {
        let (x, y) = toy_data(50, 8);
        let mut model = LinearRegression::new(LinRegConfig {
            epochs: 500,
            learning_rate: 1e6, // absurd rate forces divergence
            ..LinRegConfig::default()
        });
        assert!(matches!(
            model.fit(&x, &y).unwrap_err(),
            MlError::Diverged { .. }
        ));
    }

    #[test]
    fn prediction_error_is_small() {
        let (x, y) = toy_data(100, 9);
        let mut model = LinearRegression::new(LinRegConfig {
            epochs: 1000,
            learning_rate: 0.5,
            ..LinRegConfig::default()
        });
        model.fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(crate::metrics::mse(&pred.into_vec(), y.as_slice()) < 1e-6);
    }

    /// A NaN cell made the gram and `Xᵀy` NaN, and the solve returned
    /// `Ok` with NaN coefficients. Now it is a typed error, and the model
    /// keeps the coefficients it had.
    #[test]
    fn normal_equations_reject_a_non_finite_table() {
        let (x, y) = toy_data(5, 2);
        let mut model = LinearRegression::new(LinRegConfig::default());
        model.fit_normal_equations(&x, &y).unwrap();
        let theta = model.coefficients().cloned();
        for poison in [f64::NAN, f64::INFINITY] {
            let mut bad = x.clone();
            bad.set(3, 0, poison);
            assert_eq!(
                model.fit_normal_equations(&bad, &y),
                Err(MlError::NonFiniteInput("normal-equation features"))
            );
            assert_eq!(model.coefficients().cloned(), theta);
        }
    }
}
