//! The dense-training loops as they were before the fused gradient pass
//! and the class-sum Lloyd update, kept word for word as oracles
//! (`#[cfg(test)]` only — the `reference.rs` pattern of
//! `amalur-integration` and `hfl`).
//!
//! `linreg` / `logreg` are the two-product epochs (`mul_right_into`, the
//! link over the whole vector, `t_mul_into`); `kmeans` is the Lloyd loop
//! that refilled an `n × k` one-hot matrix every iteration and took
//! `t_mul_into` of it. The tests below hold the production fits to their
//! bits — `θ`, every loss, the error, centroids, inertia, assignments
//! and iteration count — on dense, factorized and shared tables.

use crate::linreg::validate_labels;
use crate::logreg::{log_likelihood, sigmoid};
use crate::{KMeansConfig, LinRegConfig, LogRegConfig, MlError, Result};
use amalur_factorize::LinOps;
use amalur_matrix::{DenseMatrix, Workspace};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// `LinearRegression::fit_with_workspace` with two products per epoch.
pub(crate) fn linreg<L: LinOps>(
    config: &LinRegConfig,
    x: &L,
    y: &DenseMatrix,
    ws: &mut Workspace,
    loss_history: &mut Vec<f64>,
) -> Result<DenseMatrix> {
    validate_labels(x, y)?;
    let n = x.n_rows() as f64;
    let mut theta = DenseMatrix::zeros(x.n_cols(), 1);
    let mut resid = ws.take_matrix(x.n_rows(), 1);
    let mut grad = ws.take_matrix(x.n_cols(), 1);
    loss_history.clear();
    let mut prev_loss = f64::INFINITY;
    let mut outcome = Ok(());
    for epoch in 0..config.epochs {
        x.mul_right_into(&theta, &mut resid, ws)?; // resid = Xθ
        resid.sub_assign(y)?; // resid = Xθ − y
        let loss = resid.frobenius_norm_sq() / (2.0 * n);
        if !loss.is_finite() {
            outcome = Err(MlError::Diverged { epoch });
            break;
        }
        loss_history.push(loss);
        x.t_mul_into(&resid, &mut grad, ws)?;
        if config.l2 > 0.0 {
            grad.axpy_assign(config.l2, &theta)?;
        }
        theta.axpy_assign(-config.learning_rate / n, &grad)?;
        if config.tolerance > 0.0 && (prev_loss - loss).abs() < config.tolerance {
            break;
        }
        prev_loss = loss;
    }
    ws.give_matrix(resid);
    ws.give_matrix(grad);
    outcome?;
    Ok(theta)
}

/// `LogisticRegression::fit_with_workspace` with two products per epoch.
pub(crate) fn logreg<L: LinOps>(
    config: &LogRegConfig,
    x: &L,
    y: &DenseMatrix,
    ws: &mut Workspace,
    loss_history: &mut Vec<f64>,
) -> Result<DenseMatrix> {
    validate_labels(x, y)?;
    if y.as_slice().iter().any(|&v| v != 0.0 && v != 1.0) {
        return Err(MlError::InvalidConfig(
            "logistic regression labels must be 0 or 1".into(),
        ));
    }
    let n = x.n_rows() as f64;
    let mut theta = DenseMatrix::zeros(x.n_cols(), 1);
    let mut p = ws.take_matrix(x.n_rows(), 1);
    let mut grad = ws.take_matrix(x.n_cols(), 1);
    loss_history.clear();
    let mut outcome = Ok(());
    for epoch in 0..config.epochs {
        x.mul_right_into(&theta, &mut p, ws)?; // p = Xθ
        p.map_inplace(sigmoid); // p = σ(Xθ)
        let loss = -y
            .as_slice()
            .iter()
            .zip(p.as_slice())
            .map(|(&yi, &pi)| log_likelihood(yi, pi))
            .sum::<f64>()
            / n;
        if !loss.is_finite() {
            outcome = Err(MlError::Diverged { epoch });
            break;
        }
        loss_history.push(loss);
        p.sub_assign(y)?; // p = σ(Xθ) − y, the residual
        x.t_mul_into(&p, &mut grad, ws)?;
        if config.l2 > 0.0 {
            grad.axpy_assign(config.l2, &theta)?;
        }
        theta.axpy_assign(-config.learning_rate / n, &grad)?;
    }
    ws.give_matrix(p);
    ws.give_matrix(grad);
    outcome?;
    Ok(theta)
}

/// What a K-means fit leaves behind.
#[derive(Debug)]
pub(crate) struct KMeansFit {
    pub(crate) centroids: DenseMatrix,
    pub(crate) inertia: f64,
    pub(crate) iterations: usize,
    pub(crate) assignments: Vec<usize>,
}

/// `KMeans::fit_with_workspace` with a one-hot product per Lloyd update.
pub(crate) fn kmeans<L: LinOps>(
    config: &KMeansConfig,
    x: &L,
    ws: &mut Workspace,
) -> Result<KMeansFit> {
    let n = x.n_rows();
    let d = x.n_cols();
    let k = config.k;
    if k == 0 || k > n {
        return Err(MlError::InvalidConfig(format!(
            "k = {k} must be in 1..={n}"
        )));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(&mut rng);
    let chosen = &indices[..k];
    let mut onehot = ws.take_matrix(n, k);
    let mut dk = ws.take_matrix(d, k);
    let mut cross = ws.take_matrix(n, k);
    let mut centroids_t = ws.take_matrix(d, k);
    let mut new_centroids = ws.take_matrix(k, d);
    for (c, &row) in chosen.iter().enumerate() {
        onehot.set(row, c, 1.0);
    }
    let mut centroids = DenseMatrix::zeros(k, d);
    let row_norms = x.row_norms_sq();
    let mut assignments = vec![0usize; n];
    let mut centroid_norms = vec![0.0f64; k];
    let mut counts = vec![0usize; k];
    let (mut inertia_out, mut iterations) = (f64::INFINITY, 0);
    let outcome = (|| -> Result<()> {
        x.t_mul_into(&onehot, &mut dk, ws)?;
        dk.transpose_into(&mut centroids)?;
        for iter in 0..config.max_iters {
            // Cross terms: T · centroidsᵀ  (n × k).
            centroids.transpose_into(&mut centroids_t)?;
            x.mul_right_into(&centroids_t, &mut cross, ws)?;
            for (norm, c) in centroid_norms.iter_mut().zip(0..k) {
                *norm = centroids.row(c).iter().map(|v| v * v).sum();
            }
            let mut inertia = 0.0;
            for i in 0..n {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                let cross_row = cross.row(i);
                for c in 0..k {
                    let dist = row_norms[i] - 2.0 * cross_row[c] + centroid_norms[c];
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                assignments[i] = best;
                inertia += best_d.max(0.0);
            }
            inertia_out = inertia;
            iterations = iter + 1;
            // Update: μ_c = Σ_{i∈c} T_i / |c| via Tᵀ·A with A one-hot.
            onehot.as_mut_slice().fill(0.0);
            counts.iter_mut().for_each(|c| *c = 0);
            for (i, &c) in assignments.iter().enumerate() {
                onehot.set(i, c, 1.0);
                counts[c] += 1;
            }
            x.t_mul_into(&onehot, &mut dk, ws)?; // d × k column sums
            new_centroids
                .as_mut_slice()
                .copy_from_slice(centroids.as_slice());
            for (c, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue; // keep previous centroid for empty clusters
                }
                let inv = 1.0 / count as f64;
                for j in 0..d {
                    new_centroids.set(c, j, dk.get(j, c) * inv);
                }
            }
            let movement = new_centroids
                .as_slice()
                .iter()
                .zip(centroids.as_slice())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            std::mem::swap(&mut centroids, &mut new_centroids);
            if movement < config.tolerance {
                break;
            }
        }
        Ok(())
    })();
    ws.give_matrix(onehot);
    ws.give_matrix(dk);
    ws.give_matrix(cross);
    ws.give_matrix(centroids_t);
    ws.give_matrix(new_centroids);
    outcome?;
    Ok(KMeansFit {
        centroids,
        inertia: inertia_out,
        iterations,
        assignments,
    })
}

// Redundant under the `#[cfg(test)] mod reference`, but it is what
// marks the region as test code for the audit's typed-errors rule.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KMeans, LinearRegression, LogisticRegression};
    use amalur_factorize::FactorizedTable;
    use std::sync::Arc;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A star with shared (redundant) columns, so the factorized
    /// products take their corrected-slot paths: 11 target columns.
    fn star(rows: usize, seed: u64) -> FactorizedTable {
        let spec = amalur_data::TwoSourceSpec {
            rows_s1: rows,
            cols_s1: 4,
            rows_s2: (rows / 10).max(2),
            cols_s2: 9,
            shared_cols: 2,
            target_redundancy: true,
            row_coverage: 1.0,
            source_redundancy: false,
            seed,
        };
        let (md, data) = amalur_data::generate_two_source(&spec).unwrap();
        FactorizedTable::new(md, data).unwrap()
    }

    /// A least-squares target and a 0 / 1 label from a planted model.
    fn labels(t: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
        let truth: Vec<f64> = (0..t.cols()).map(|j| (j as f64 * 0.7).sin()).collect();
        let y = t.matmul(&DenseMatrix::column_vector(&truth)).unwrap();
        let binary = y.map(|v| f64::from(v > 0.0));
        (y, binary)
    }

    /// `(θ or error, loss history)` of a fit, as bits.
    type GdRun = (std::result::Result<Vec<u64>, MlError>, Vec<u64>);

    fn gd_run(fit: Result<DenseMatrix>, history: &[f64]) -> GdRun {
        (fit.map(|theta| bits(theta.as_slice())), bits(history))
    }

    fn linreg_cases() -> Vec<LinRegConfig> {
        let plain = LinRegConfig {
            epochs: 30,
            learning_rate: 0.01,
            l2: 0.0,
            tolerance: 0.0,
        };
        vec![
            plain.clone(),
            LinRegConfig {
                l2: 0.5,
                ..plain.clone()
            },
            // Early stopping part-way through.
            LinRegConfig {
                epochs: 400,
                tolerance: 1e-3,
                ..plain.clone()
            },
            // A learning rate that diverges.
            LinRegConfig {
                epochs: 200,
                learning_rate: 1e4,
                ..plain
            },
        ]
    }

    fn logreg_cases() -> Vec<LogRegConfig> {
        vec![
            LogRegConfig {
                epochs: 30,
                learning_rate: 0.5,
                l2: 0.0,
            },
            LogRegConfig {
                epochs: 30,
                learning_rate: 0.5,
                l2: 0.1,
            },
            // Saturating probabilities under a large step.
            LogRegConfig {
                epochs: 25,
                learning_rate: 1e3,
                l2: 0.0,
            },
        ]
    }

    /// Every GD case against the two-product loops; returns how many
    /// linreg fits stopped early and how many diverged, so the caller
    /// can check the cases meant something.
    fn gd_fits_equal_reference<L: LinOps>(
        x: &L,
        y: &DenseMatrix,
        binary: &DenseMatrix,
        what: &str,
    ) -> (usize, usize) {
        let ws = &mut Workspace::new();
        let (mut stopped, mut diverged) = (0, 0);
        for config in linreg_cases() {
            let mut history = Vec::new();
            let want = gd_run(linreg(&config, x, y, ws, &mut history), &history);
            let mut model = LinearRegression::new(config.clone());
            let fit = model.fit_with_workspace(x, y, ws);
            let got = (
                fit.map(|()| bits(model.coefficients().unwrap().as_slice())),
                bits(model.loss_history()),
            );
            assert_eq!(got, want, "linreg {what}, {config:?}");
            stopped += usize::from(want.0.is_ok() && want.1.len() < config.epochs);
            diverged += usize::from(matches!(want.0, Err(MlError::Diverged { .. })));
        }
        for config in logreg_cases() {
            let mut history = Vec::new();
            let want = gd_run(logreg(&config, x, binary, ws, &mut history), &history);
            let mut model = LogisticRegression::new(config.clone());
            let fit = model.fit_with_workspace(x, binary, ws);
            let got = (
                fit.map(|()| bits(model.coefficients().unwrap().as_slice())),
                bits(model.loss_history()),
            );
            assert_eq!(got, want, "logreg {what}, {config:?}");
        }
        (stopped, diverged)
    }

    fn kmeans_fits_equal_reference<L: LinOps>(x: &L, what: &str) {
        let ws = &mut Workspace::new();
        for k in [1, 3, 8, 9, 12] {
            for tolerance in [0.0, 1e-2] {
                let config = KMeansConfig {
                    k,
                    max_iters: 10,
                    tolerance,
                    seed: 5 + k as u64,
                };
                let want = kmeans(&config, x, ws).unwrap();
                let mut model = KMeans::new(config);
                let assignments = model.fit_with_workspace(x, ws).unwrap();
                let case = format!("k-means {what}, k = {k}, tolerance {tolerance}");
                assert_eq!(assignments, want.assignments, "{case}");
                assert_eq!(model.iterations(), want.iterations, "{case}");
                assert_eq!(model.inertia().to_bits(), want.inertia.to_bits(), "{case}");
                assert_eq!(
                    bits(model.centroids().unwrap().as_slice()),
                    bits(want.centroids.as_slice()),
                    "{case}"
                );
            }
        }
    }

    /// Linear and logistic regression keep the two-product loops' bits
    /// on every backend: `θ`, the whole loss history and the error,
    /// through L2, early stopping, divergence and saturation. The dense
    /// tables cross `KC` and are not multiples of the 8-row link block.
    #[test]
    fn gd_fits_equal_two_product_reference() {
        let (mut stopped, mut diverged) = (0, 0);
        for (rows, seed) in [(70, 3), (603, 4)] {
            let ft = star(rows, seed);
            let t = ft.materialize();
            let (y, binary) = labels(&t);
            for (s, d) in [
                gd_fits_equal_reference(&t, &y, &binary, "dense"),
                gd_fits_equal_reference(&ft, &y, &binary, "factorized"),
                gd_fits_equal_reference(&Arc::new(t.clone()), &y, &binary, "shared dense"),
            ] {
                stopped += s;
                diverged += d;
            }
        }
        assert!(stopped > 0, "no fit stopped early");
        assert!(diverged > 0, "no fit diverged");
        // A non-finite cell: Diverged at epoch 0 on both, θ never moved.
        let mut t = star(70, 5).materialize();
        let (y, binary) = labels(&t);
        t.set(33, 4, f64::INFINITY);
        gd_fits_equal_reference(&t, &y, &binary, "dense with ∞");
    }

    /// K-means keeps the one-hot loop's bits on every backend: every
    /// `k` puts the dense product on another path (`n == 1`, thin at 3
    /// and 8, packed at 9 on the tall table, thin under the packing
    /// threshold at 9 and 12 on the short one), with and without early
    /// convergence.
    #[test]
    fn kmeans_fits_equal_one_hot_reference() {
        for (rows, seed) in [(70, 6), (603, 7)] {
            let ft = star(rows, seed);
            let t = ft.materialize();
            kmeans_fits_equal_reference(&t, "dense");
            kmeans_fits_equal_reference(&ft, "factorized");
            kmeans_fits_equal_reference(&Arc::new(ft.clone()), "shared factorized");
        }
    }

    /// The seeding alone (`max_iters = 0`) and one Lloyd step after it,
    /// on tables whose chosen rows hold `−0`, `+0` and subnormal cells:
    /// class sums with a spare class keep the one-hot product's bits,
    /// which turn the chosen row's `−0` into `+0`.
    #[test]
    fn kmeans_seeding_equals_one_hot_product_with_signed_zeros() {
        let mut t = star(70, 8).materialize();
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            match i % 4 {
                0 => *v = -0.0,
                1 => *v = 0.0,
                2 if i % 3 == 0 => *v = -f64::MIN_POSITIVE / 16.0,
                _ => {}
            }
        }
        let ws = &mut Workspace::new();
        let mut negative_zeros = 0;
        for (k, max_iters) in [(1, 0), (3, 0), (8, 0), (9, 1), (12, 0)] {
            let config = KMeansConfig {
                k,
                max_iters,
                tolerance: 0.0,
                seed: 40 + k as u64,
            };
            let want = kmeans(&config, &t, ws).unwrap();
            let mut model = KMeans::new(config);
            let assignments = model.fit_with_workspace(&t, ws).unwrap();
            assert_eq!(assignments, want.assignments, "k = {k}");
            let got = model.centroids().unwrap().as_slice();
            assert_eq!(bits(got), bits(want.centroids.as_slice()), "k = {k}");
            negative_zeros += got
                .iter()
                .filter(|v| v.to_bits() == (-0.0f64).to_bits())
                .count();
        }
        assert_eq!(negative_zeros, 0, "a seeded centroid keeps no −0");
    }
}
