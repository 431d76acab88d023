//! Gaussian non-negative matrix factorization (multiplicative updates).
//!
//! Factorizes `T ≈ W·H` with `W ≥ 0` (`n × r`) and `H ≥ 0` (`r × d`)
//! using Lee–Seung multiplicative updates:
//!
//! ```text
//! H ← H ∘ (WᵀT) / (WᵀW H)
//! W ← W ∘ (THᵀ) / (W H Hᵀ)
//! ```
//!
//! `WᵀT = (Tᵀ W)ᵀ` and `T Hᵀ` are one `t_mul` / `mul_right` each, so the
//! whole algorithm runs factorized. The reconstruction loss uses
//! `‖T‖²_F` from `row_norms_sq`, again avoiding materialization, and the
//! `TᵀW` / `WᵀW` it computes for the updated `W` are the ones the next
//! `H` update starts from: two passes over the table per iteration
//! (plus one before the first), not three.

use crate::{MlError, Result};
use amalur_factorize::LinOps;
use amalur_matrix::{DenseMatrix, Workspace};
use rand::SeedableRng;

/// Hyper-parameters for [`Gnmf`].
#[derive(Debug, Clone)]
pub struct GnmfConfig {
    /// Factorization rank `r`.
    pub rank: usize,
    /// Number of multiplicative-update iterations.
    pub iters: usize,
    /// RNG seed for the non-negative initialization.
    pub seed: u64,
}

impl Default for GnmfConfig {
    fn default() -> Self {
        Self {
            rank: 2,
            iters: 100,
            seed: 42,
        }
    }
}

/// Gaussian NMF via multiplicative updates. Requires `T ≥ 0` element-wise
/// for the non-negativity guarantee (standard NMF precondition).
#[derive(Debug, Clone)]
pub struct Gnmf {
    config: GnmfConfig,
    w: Option<DenseMatrix>,
    h: Option<DenseMatrix>,
    loss_history: Vec<f64>,
}

const EPS: f64 = 1e-12;

impl Gnmf {
    /// Creates an unfitted model.
    pub fn new(config: GnmfConfig) -> Self {
        Self {
            config,
            w: None,
            h: None,
            loss_history: Vec::new(),
        }
    }

    /// Runs the multiplicative updates on `x`.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] for rank 0 or rank > min(n, d);
    /// [`MlError::NonFiniteInput`] when `‖T‖²` is not finite (a NaN or
    /// ±∞ cell); [`MlError::Diverged`] at the first iteration whose loss
    /// is not finite. On any error the model keeps its previous fit.
    pub fn fit<L: LinOps>(&mut self, x: &L) -> Result<()> {
        let mut ws = Workspace::new();
        self.fit_with_workspace(x, &mut ws)
    }

    /// [`Self::fit`] drawing every per-iteration intermediate from `ws`
    /// (allocation-free multiplicative updates once the pool is warm).
    ///
    /// # Errors
    /// As [`Self::fit`].
    pub fn fit_with_workspace<L: LinOps>(&mut self, x: &L, ws: &mut Workspace) -> Result<()> {
        let n = x.n_rows();
        let d = x.n_cols();
        let r = self.config.rank;
        if r == 0 || r > n.min(d) {
            return Err(MlError::InvalidConfig(format!(
                "rank {r} must be in 1..={}",
                n.min(d)
            )));
        }
        let t_norm_sq: f64 = x.row_norms_sq().iter().sum();
        if !t_norm_sq.is_finite() {
            return Err(MlError::NonFiniteInput("GNMF rows"));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let mut w = DenseMatrix::random_uniform(n, r, 0.1, 1.0, &mut rng);
        let mut h = DenseMatrix::random_uniform(r, d, 0.1, 1.0, &mut rng);
        // Reusable buffers for every shape the update loop produces.
        let mut dr = ws.take_matrix(d, r); // Tᵀ·W
        let mut wt_t = ws.take_matrix(r, d); // (Tᵀ·W)ᵀ
        let mut wtw = ws.take_matrix(r, r);
        let mut denom_h = ws.take_matrix(r, d);
        let mut h_t = ws.take_matrix(d, r);
        let mut t_ht = ws.take_matrix(n, r);
        let mut hht = ws.take_matrix(r, r);
        let mut denom_w = ws.take_matrix(n, r);
        let mut loss_history = Vec::with_capacity(self.config.iters);
        // Fallible body runs in a closure so the checked-out buffers are
        // returned to the pool on every exit path (workspace contract).
        let outcome = (|| -> Result<()> {
            // `TᵀW` and `WᵀW` for the initial `W`. The loss at the end of
            // an iteration needs both for the `W` it has just updated,
            // and the next `H` update needs them for that same `W`: they
            // are computed once per `W` and carried across the loop edge
            // in `wt_t` / `wtw` — `iters + 1` passes of `t_mul` over the
            // table, not `2·iters`. Carrying is the same operands through
            // the same kernels as recomputing, so `W`, `H` and the loss
            // history have the bits of the three-pass loop (kept in the
            // tests below as the reference).
            x.t_mul_into(&w, &mut dr, ws)?; // d × r
            dr.transpose_into(&mut wt_t)?; // r × d
            w.gram_into(&mut wtw)?; // r × r
            for iter in 0..self.config.iters {
                // H update: H ∘ (WᵀT) / (WᵀW H)
                wtw.matmul_into(&h, &mut denom_h)?;
                update_inplace(&mut h, &wt_t, &denom_h);
                // W update: W ∘ (THᵀ) / (W (H Hᵀ))
                h.transpose_into(&mut h_t)?;
                x.mul_right_into(&h_t, &mut t_ht, ws)?; // n × r
                h.matmul_transpose_into(&h, &mut hht)?; // r × r
                w.matmul_into(&hht, &mut denom_w)?;
                update_inplace(&mut w, &t_ht, &denom_w);
                // Loss: ‖T‖² − 2·tr(Hᵀ(WᵀT)) + tr((WᵀW)(HHᵀ)), with `hht`
                // still that of the `H` it was computed from above.
                x.t_mul_into(&w, &mut dr, ws)?;
                dr.transpose_into(&mut wt_t)?;
                let cross: f64 = wt_t
                    .as_slice()
                    .iter()
                    .zip(h.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum();
                w.gram_into(&mut wtw)?;
                // Both factors are symmetric, so tr((WᵀW)(HHᵀ)) is their
                // element-wise product summed.
                let quad: f64 = wtw
                    .as_slice()
                    .iter()
                    .zip(hht.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum();
                let loss = t_norm_sq - 2.0 * cross + quad;
                // `max` would turn a NaN loss into a perfect fit.
                if !loss.is_finite() {
                    return Err(MlError::Diverged { epoch: iter });
                }
                loss_history.push(loss.max(0.0));
            }
            Ok(())
        })();
        ws.give_matrix(dr);
        ws.give_matrix(wt_t);
        ws.give_matrix(wtw);
        ws.give_matrix(denom_h);
        ws.give_matrix(h_t);
        ws.give_matrix(t_ht);
        ws.give_matrix(hht);
        ws.give_matrix(denom_w);
        outcome?;
        self.w = Some(w);
        self.h = Some(h);
        self.loss_history = loss_history;
        Ok(())
    }

    /// Fitted basis `W` (`n × r`).
    pub fn w(&self) -> Option<&DenseMatrix> {
        self.w.as_ref()
    }

    /// Fitted encoding `H` (`r × d`).
    pub fn h(&self) -> Option<&DenseMatrix> {
        self.h.as_ref()
    }

    /// Reconstruction `W·H`.
    ///
    /// # Errors
    /// [`MlError::NotFitted`] before fit.
    pub fn reconstruct(&self) -> Result<DenseMatrix> {
        let w = self.w.as_ref().ok_or(MlError::NotFitted)?;
        let h = self.h.as_ref().ok_or(MlError::NotFitted)?;
        Ok(w.matmul(h)?)
    }

    /// Per-iteration squared Frobenius reconstruction loss.
    pub fn loss_history(&self) -> &[f64] {
        &self.loss_history
    }
}

/// Element-wise multiplicative update `base ← base ∘ numer / (denom + ε)`.
fn update_inplace(base: &mut DenseMatrix, numer: &DenseMatrix, denom: &DenseMatrix) {
    debug_assert_eq!(base.shape(), numer.shape());
    debug_assert_eq!(base.shape(), denom.shape());
    for ((b, &nv), &dv) in base
        .as_mut_slice()
        .iter_mut()
        .zip(numer.as_slice())
        .zip(denom.as_slice())
    {
        *b *= nv / (dv + EPS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// An exactly rank-2 non-negative matrix.
    fn low_rank(n: usize, d: usize, seed: u64) -> DenseMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w = DenseMatrix::random_uniform(n, 2, 0.0, 1.0, &mut rng);
        let h = DenseMatrix::random_uniform(2, d, 0.0, 1.0, &mut rng);
        w.matmul(&h).unwrap()
    }

    /// The update loop before `TᵀW` / `WᵀW` were carried from each loss
    /// to the next `H` update, kept word for word: three `t_mul` /
    /// `mul_right` passes and two grams of `W` per iteration.
    fn fit_three_pass_reference<L: LinOps>(
        config: &GnmfConfig,
        x: &L,
    ) -> (DenseMatrix, DenseMatrix, Vec<f64>) {
        let ws = &mut Workspace::new();
        let n = x.n_rows();
        let d = x.n_cols();
        let r = config.rank;
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut w = DenseMatrix::random_uniform(n, r, 0.1, 1.0, &mut rng);
        let mut h = DenseMatrix::random_uniform(r, d, 0.1, 1.0, &mut rng);
        let t_norm_sq: f64 = x.row_norms_sq().iter().sum();
        let mut dr = ws.take_matrix(d, r); // Tᵀ·W
        let mut wt_t = ws.take_matrix(r, d); // (Tᵀ·W)ᵀ
        let mut wtw = ws.take_matrix(r, r);
        let mut denom_h = ws.take_matrix(r, d);
        let mut h_t = ws.take_matrix(d, r);
        let mut t_ht = ws.take_matrix(n, r);
        let mut hht = ws.take_matrix(r, r);
        let mut denom_w = ws.take_matrix(n, r);
        let mut loss_history = Vec::new();
        for _ in 0..config.iters {
            // H update: H ∘ (WᵀT) / (WᵀW H)
            x.t_mul_into(&w, &mut dr, ws).unwrap(); // d × r
            dr.transpose_into(&mut wt_t).unwrap(); // r × d
            w.gram_into(&mut wtw).unwrap(); // r × r
            wtw.matmul_into(&h, &mut denom_h).unwrap();
            update_inplace(&mut h, &wt_t, &denom_h);
            // W update: W ∘ (THᵀ) / (W (H Hᵀ))
            h.transpose_into(&mut h_t).unwrap();
            x.mul_right_into(&h_t, &mut t_ht, ws).unwrap(); // n × r
            h.matmul_transpose_into(&h, &mut hht).unwrap(); // r × r
            w.matmul_into(&hht, &mut denom_w).unwrap();
            update_inplace(&mut w, &t_ht, &denom_w);
            // Loss: ‖T‖² − 2·tr(Hᵀ(WᵀT)) + tr((WᵀW)(HHᵀ))
            x.t_mul_into(&w, &mut dr, ws).unwrap();
            dr.transpose_into(&mut wt_t).unwrap();
            let cross: f64 = wt_t
                .as_slice()
                .iter()
                .zip(h.as_slice())
                .map(|(&a, &b)| a * b)
                .sum();
            w.gram_into(&mut wtw).unwrap();
            h.matmul_transpose_into(&h, &mut hht).unwrap();
            let quad: f64 = wtw
                .as_slice()
                .iter()
                .zip(hht.as_slice())
                .map(|(&a, &b)| a * b)
                .sum();
            let loss = (t_norm_sq - 2.0 * cross + quad).max(0.0);
            loss_history.push(loss);
        }
        (w, h, loss_history)
    }

    /// A non-negative star table with shared (redundant) columns, so the
    /// factorized `t_mul` / `mul_right` take their corrected-slot paths.
    fn non_negative_star(seed: u64) -> amalur_factorize::FactorizedTable {
        let spec = amalur_data::TwoSourceSpec {
            rows_s1: 90,
            cols_s1: 4,
            rows_s2: 18,
            cols_s2: 7,
            shared_cols: 2,
            target_redundancy: true,
            row_coverage: 1.0,
            source_redundancy: false,
            seed,
        };
        let (md, mut data) = amalur_data::generate_two_source(&spec).unwrap();
        for d in &mut data {
            d.map_inplace(f64::abs);
        }
        amalur_factorize::FactorizedTable::new(md, data).unwrap()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_equals_three_pass_reference<L: LinOps>(x: &L, what: &str) {
        for rank in [1, 4, 5] {
            for iters in [1, 2, 8] {
                let config = GnmfConfig {
                    rank,
                    iters,
                    seed: 17,
                };
                let (w, h, losses) = fit_three_pass_reference(&config, x);
                let mut model = Gnmf::new(config);
                model.fit(x).unwrap();
                let case = format!("{what}, rank {rank}, {iters} iterations");
                assert_eq!(
                    bits(model.w().unwrap().as_slice()),
                    bits(w.as_slice()),
                    "W: {case}"
                );
                assert_eq!(
                    bits(model.h().unwrap().as_slice()),
                    bits(h.as_slice()),
                    "H: {case}"
                );
                assert_eq!(bits(model.loss_history()), bits(&losses), "loss: {case}");
            }
        }
    }

    #[test]
    fn carried_products_equal_three_pass_reference() {
        let ft = non_negative_star(23);
        assert_equals_three_pass_reference(&ft, "factorized");
        assert_equals_three_pass_reference(&ft.materialize(), "dense");
        // Tall enough that the rank-4 and rank-5 products cross the old
        // packing threshold.
        assert_equals_three_pass_reference(&low_rank(900, 12, 6), "tall dense");
    }

    #[test]
    fn reconstructs_low_rank_matrix() {
        let t = low_rank(30, 8, 1);
        let mut model = Gnmf::new(GnmfConfig {
            rank: 2,
            iters: 500,
            seed: 7,
        });
        model.fit(&t).unwrap();
        let recon = model.reconstruct().unwrap();
        let rel_err = recon.sub(&t).unwrap().frobenius_norm() / t.frobenius_norm();
        assert!(rel_err < 0.05, "relative error {rel_err} too high");
    }

    #[test]
    fn loss_is_non_increasing() {
        let t = low_rank(20, 6, 2);
        let mut model = Gnmf::new(GnmfConfig {
            rank: 2,
            iters: 100,
            seed: 3,
        });
        model.fit(&t).unwrap();
        let h = model.loss_history();
        // Multiplicative updates are monotone (up to fp noise).
        for w in h.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-6) + 1e-9);
        }
    }

    #[test]
    fn factors_stay_non_negative() {
        let t = low_rank(15, 5, 3);
        let mut model = Gnmf::new(GnmfConfig {
            rank: 3,
            iters: 50,
            seed: 4,
        });
        model.fit(&t).unwrap();
        assert!(model.w().unwrap().as_slice().iter().all(|&v| v >= 0.0));
        assert!(model.h().unwrap().as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn invalid_rank() {
        let t = low_rank(5, 4, 5);
        assert!(Gnmf::new(GnmfConfig {
            rank: 0,
            iters: 1,
            seed: 0
        })
        .fit(&t)
        .is_err());
        assert!(Gnmf::new(GnmfConfig {
            rank: 10,
            iters: 1,
            seed: 0
        })
        .fit(&t)
        .is_err());
    }

    #[test]
    fn not_fitted_errors() {
        let model = Gnmf::new(GnmfConfig::default());
        assert!(matches!(
            model.reconstruct().unwrap_err(),
            MlError::NotFitted
        ));
    }

    /// One `∞` cell made `‖T‖²` infinite and every loss `∞ − ∞ = NaN`,
    /// which `max(0.0)` reported as a perfect fit. Now it is a typed
    /// error, and the model keeps the fit it had.
    #[test]
    fn non_finite_table_is_an_error_that_keeps_the_previous_fit() {
        let config = GnmfConfig {
            rank: 2,
            iters: 3,
            seed: 1,
        };
        let mut model = Gnmf::new(config);
        let good = low_rank(5, 2, 6);
        model.fit(&good).unwrap();
        let (w, h, history) = (
            model.w().cloned(),
            model.h().cloned(),
            model.loss_history().to_vec(),
        );
        assert_eq!(history.len(), 3);
        for poison in [f64::INFINITY, f64::NAN] {
            let mut bad = good.clone();
            bad.set(2, 1, poison);
            assert_eq!(model.fit(&bad), Err(MlError::NonFiniteInput("GNMF rows")));
            assert_eq!(model.w().cloned(), w);
            assert_eq!(model.h().cloned(), h);
            assert_eq!(model.loss_history(), &history[..]);
        }
        // Finite cells whose squares overflow would make it `∞ − ∞` too.
        let mut huge = good.clone();
        huge.map_inplace(|v| v * 1e154);
        assert_eq!(model.fit(&huge), Err(MlError::NonFiniteInput("GNMF rows")));
        assert_eq!(model.loss_history(), &history[..]);
    }
}
