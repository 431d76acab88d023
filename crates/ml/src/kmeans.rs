//! K-Means clustering (Lloyd's algorithm) over [`LinOps`].
//!
//! The distance computation uses the expansion
//! `‖T_i − μ_c‖² = ‖T_i‖² − 2·T_i·μ_c + ‖μ_c‖²`,
//! where the cross term is a single `mul_right` against the centroid
//! matrix and the row norms come from `row_norms_sq` — both factorized
//! operators, so clustering never materializes the target table.
//!
//! The centroid update takes the per-class column sums from
//! [`LinOps::class_sums_into`]: `Tᵀ·A` for the one-hot assignment matrix
//! `A`, computed on either backend without building `A` — the same bits
//! as the product on finite tables. The seeding takes class sums too,
//! with chosen row `c` alone in class `c` and every other row in a spare
//! class `k` that is dropped: on finite tables that is the bits of `Tᵀ`
//! against the one-hot columns of the `k` chosen rows, both being the
//! chosen row with `−0` turned into `+0`.
//!
//! A fit answers a table with a NaN or ±∞ cell — or whose squared row
//! norms overflow — with [`MlError::NonFiniteInput`], and a distance
//! sum that overflows with [`MlError::Diverged`]; neither leaves a mark
//! on the model.

use crate::{MlError, Result};
use amalur_factorize::LinOps;
use amalur_matrix::{DenseMatrix, Workspace};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters for [`KMeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on centroid movement (Frobenius).
    pub tolerance: f64,
    /// RNG seed for centroid initialization (deterministic runs).
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 2,
            max_iters: 100,
            tolerance: 1e-9,
            seed: 42,
        }
    }
}

/// Lloyd's K-Means.
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
    centroids: Option<DenseMatrix>,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Creates an unfitted model.
    pub fn new(config: KMeansConfig) -> Self {
        Self {
            config,
            centroids: None,
            inertia: f64::INFINITY,
            iterations: 0,
        }
    }

    /// Clusters the rows of `x`, returning the assignment vector.
    ///
    /// Initialization picks `k` distinct data rows at random (seeded).
    /// Empty clusters keep their previous centroid.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] for `k == 0` or `k > n_rows`;
    /// [`MlError::NonFiniteInput`] when a row's squared norm is not
    /// finite (a NaN or ±∞ cell); [`MlError::Diverged`] when the inertia
    /// overflows. On any error the model keeps its previous fit.
    pub fn fit<L: LinOps>(&mut self, x: &L) -> Result<Vec<usize>> {
        let mut ws = Workspace::new();
        self.fit_with_workspace(x, &mut ws)
    }

    /// [`Self::fit`] drawing every per-iteration intermediate from `ws`
    /// (allocation-free Lloyd iterations once the pool is warm).
    ///
    /// # Errors
    /// As [`Self::fit`].
    pub fn fit_with_workspace<L: LinOps>(
        &mut self,
        x: &L,
        ws: &mut Workspace,
    ) -> Result<Vec<usize>> {
        let n = x.n_rows();
        let d = x.n_cols();
        let k = self.config.k;
        if k == 0 || k > n {
            return Err(MlError::InvalidConfig(format!(
                "k = {k} must be in 1..={n}"
            )));
        }
        let row_norms = x.row_norms_sq();
        if row_norms.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteInput("k-means rows"));
        }
        // Initialize centroids from k distinct rows: class sums with
        // chosen row `c` alone in class `c` and the rest in the spare
        // class `k` fetch all k at once, staying backend-agnostic.
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        let mut assignments = vec![k; n];
        for (c, &row) in indices[..k].iter().enumerate() {
            assignments[row] = c;
        }
        // Reusable buffers: the d×k class sums, their k×d transpose, the
        // n×k cross terms and the double-buffered centroids.
        let mut dk = ws.take_matrix(d, k);
        let mut cross = ws.take_matrix(n, k);
        let mut centroids_t = ws.take_matrix(d, k);
        let mut new_centroids = ws.take_matrix(k, d);
        let mut centroids = DenseMatrix::zeros(k, d);
        let mut centroid_norms = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        let (mut inertia, mut iterations) = (f64::INFINITY, 0);
        // Fallible body runs in a closure so the checked-out buffers are
        // returned to the pool on every exit path (workspace contract).
        let outcome = (|| -> Result<()> {
            let mut seeds = ws.take_matrix(d, k + 1);
            let seeded = x.class_sums_into(&assignments, &mut seeds, ws);
            for c in 0..k {
                for j in 0..d {
                    centroids.set(c, j, seeds.get(j, c));
                }
            }
            ws.give_matrix(seeds);
            seeded?;
            // What a fit of zero iterations answers.
            assignments.fill(0);
            for iter in 0..self.config.max_iters {
                // Cross terms: T · centroidsᵀ  (n × k).
                centroids.transpose_into(&mut centroids_t)?;
                x.mul_right_into(&centroids_t, &mut cross, ws)?;
                for (norm, c) in centroid_norms.iter_mut().zip(0..k) {
                    *norm = centroids.row(c).iter().map(|v| v * v).sum();
                }
                inertia = 0.0;
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
                iterations = iter + 1;
                if !inertia.is_finite() {
                    return Err(MlError::Diverged { epoch: iter });
                }
                // Update: μ_c = Σ_{i∈c} T_i / |c| from the class sums.
                counts.iter_mut().for_each(|c| *c = 0);
                for &c in &assignments {
                    counts[c] += 1;
                }
                x.class_sums_into(&assignments, &mut dk, ws)?; // d × k
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
                if movement < self.config.tolerance {
                    break;
                }
            }
            Ok(())
        })();
        ws.give_matrix(dk);
        ws.give_matrix(cross);
        ws.give_matrix(centroids_t);
        ws.give_matrix(new_centroids);
        outcome?;
        self.centroids = Some(centroids);
        self.inertia = inertia;
        self.iterations = iterations;
        Ok(assignments)
    }

    /// Assigns each row of `x` to its nearest fitted centroid.
    ///
    /// # Errors
    /// [`MlError::NotFitted`] before `fit`.
    pub fn predict<L: LinOps>(&self, x: &L) -> Result<Vec<usize>> {
        let centroids = self.centroids.as_ref().ok_or(MlError::NotFitted)?;
        let k = centroids.rows();
        let cross = x.mul_right(&centroids.transpose())?;
        let row_norms = x.row_norms_sq();
        let centroid_norms: Vec<f64> = (0..k)
            .map(|c| centroids.row(c).iter().map(|v| v * v).sum())
            .collect();
        Ok((0..x.n_rows())
            .map(|i| {
                let cross_row = cross.row(i);
                // `k >= 1` whenever centroids exist; 0 is the harmless
                // default for the unreachable empty case.
                (0..k)
                    .min_by(|&a, &b| {
                        let da = row_norms[i] - 2.0 * cross_row[a] + centroid_norms[a];
                        let db = row_norms[i] - 2.0 * cross_row[b] + centroid_norms[b];
                        da.total_cmp(&db)
                    })
                    .unwrap_or(0)
            })
            .collect())
    }

    /// Fitted centroids (`k × d`).
    pub fn centroids(&self) -> Option<&DenseMatrix> {
        self.centroids.as_ref()
    }

    /// Final within-cluster sum of squares.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of Lloyd iterations executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Two well-separated Gaussian-ish blobs.
    fn blobs(n_per: usize, seed: u64) -> (DenseMatrix, Vec<usize>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per {
            let _ = i;
            rows.push(vec![rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)]);
            labels.push(0);
        }
        for _ in 0..n_per {
            rows.push(vec![
                10.0 + rng.gen_range(-0.5..0.5),
                10.0 + rng.gen_range(-0.5..0.5),
            ]);
            labels.push(1);
        }
        (DenseMatrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn separates_two_blobs() {
        let (x, truth) = blobs(50, 1);
        let mut km = KMeans::new(KMeansConfig {
            k: 2,
            ..KMeansConfig::default()
        });
        let assign = km.fit(&x).unwrap();
        // Perfect clustering up to label permutation.
        let agree = assign.iter().zip(&truth).filter(|(a, b)| a == b).count();
        let agreement = agree.max(assign.len() - agree) as f64 / assign.len() as f64;
        assert_eq!(agreement, 1.0);
        assert!(km.inertia() < 100.0);
        assert!(km.iterations() >= 1);
    }

    #[test]
    fn predict_matches_fit_assignments() {
        let (x, _) = blobs(30, 2);
        let mut km = KMeans::new(KMeansConfig {
            k: 2,
            ..KMeansConfig::default()
        });
        let assign = km.fit(&x).unwrap();
        let again = km.predict(&x).unwrap();
        assert_eq!(assign, again);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, _) = blobs(30, 3);
        let run = |seed| {
            let mut km = KMeans::new(KMeansConfig {
                k: 2,
                seed,
                ..KMeansConfig::default()
            });
            km.fit(&x).unwrap()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn invalid_k() {
        let (x, _) = blobs(5, 4);
        let mut km = KMeans::new(KMeansConfig {
            k: 0,
            ..KMeansConfig::default()
        });
        assert!(km.fit(&x).is_err());
        let mut km = KMeans::new(KMeansConfig {
            k: 100,
            ..KMeansConfig::default()
        });
        assert!(km.fit(&x).is_err());
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let x = DenseMatrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 0.0]]).unwrap();
        let mut km = KMeans::new(KMeansConfig {
            k: 3,
            ..KMeansConfig::default()
        });
        km.fit(&x).unwrap();
        assert!(km.inertia() < 1e-9);
    }

    /// A table without feature columns, and a key-only satellite (a
    /// source with none) beside a base that has some: `row_norms_sq`
    /// collected one norm per row of `row_iter`, which yields no rows
    /// without columns, and the fit indexed past the end.
    #[test]
    fn zero_column_sources_cluster() {
        let key_only_satellite = |cols_s1| {
            let spec = amalur_data::TwoSourceSpec {
                rows_s1: 40,
                cols_s1,
                rows_s2: 8,
                cols_s2: 0,
                shared_cols: 0,
                target_redundancy: true,
                row_coverage: 1.0,
                source_redundancy: false,
                seed: 9,
            };
            let (md, data) = amalur_data::generate_two_source(&spec).unwrap();
            amalur_factorize::FactorizedTable::new(md, data).unwrap()
        };
        // No columns at all: every distance is 0, every row joins
        // cluster 0 at inertia 0.
        for k in [1, 3] {
            let config = KMeansConfig {
                k,
                ..KMeansConfig::default()
            };
            let mut km = KMeans::new(config.clone());
            assert_eq!(km.fit(&DenseMatrix::zeros(5, 0)).unwrap(), vec![0; 5]);
            assert_eq!(km.inertia(), 0.0);
            let mut km = KMeans::new(config);
            assert_eq!(km.fit(&key_only_satellite(0)).unwrap(), vec![0; 40]);
            assert_eq!(km.inertia(), 0.0);
        }
        // A key-only satellite beside three base columns clusters as
        // the materialized table does.
        let ft = key_only_satellite(3);
        let config = KMeansConfig {
            k: 3,
            max_iters: 10,
            tolerance: 0.0,
            seed: 2,
        };
        let mut factorized = KMeans::new(config.clone());
        let mut dense = KMeans::new(config);
        assert_eq!(
            factorized.fit(&ft).unwrap(),
            dense.fit(&ft.materialize()).unwrap()
        );
        assert!((factorized.inertia() - dense.inertia()).abs() <= 1e-9 * dense.inertia());
    }

    #[test]
    fn not_fitted_predict_errors() {
        let (x, _) = blobs(5, 5);
        let km = KMeans::new(KMeansConfig::default());
        assert!(matches!(km.predict(&x).unwrap_err(), MlError::NotFitted));
    }

    /// K-means multiplies by `k` columns; at `k = NR = 8` on a problem
    /// above the packing threshold the parent of the thin-path change ran
    /// `packed_gemm`, whose arithmetic the thin kernel repeats operation
    /// for operation. Golden captured at that parent (`2e2db26`): same
    /// seed, same bits.
    #[test]
    fn eight_clusters_keep_the_packed_kernels_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let x = DenseMatrix::random_uniform(600, 12, 0.0, 1.0, &mut rng);
        let mut km = KMeans::new(KMeansConfig {
            k: 8,
            max_iters: 6,
            seed: 11,
            ..KMeansConfig::default()
        });
        km.fit(&x).unwrap();
        let centroid_fold = km
            .centroids()
            .unwrap()
            .as_slice()
            .iter()
            .fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits());
        assert_eq!(km.iterations(), 6);
        assert_eq!(km.inertia().to_bits(), 4_646_630_728_644_831_190);
        assert_eq!(centroid_fold, 18_354_857_180_118_354_060);
    }

    /// A NaN cell used to come back `Ok` with an infinite inertia and
    /// NaN centroids. Now it is a typed error, and the model keeps the
    /// fit it had; so does a table whose distances overflow.
    #[test]
    fn non_finite_table_is_an_error_that_keeps_the_previous_fit() {
        let (good, _) = blobs(3, 8);
        let good = good.slice(0..5, 0..2).unwrap();
        let mut km = KMeans::new(KMeansConfig {
            k: 2,
            ..KMeansConfig::default()
        });
        km.fit(&good).unwrap();
        let kept = (km.centroids().cloned(), km.inertia(), km.iterations());
        for poison in [f64::NAN, f64::INFINITY, 1e200] {
            let mut bad = good.clone();
            bad.set(1, 1, poison);
            assert_eq!(km.fit(&bad), Err(MlError::NonFiniteInput("k-means rows")));
            assert_eq!(
                (km.centroids().cloned(), km.inertia(), km.iterations()),
                kept
            );
        }
        // Norms that fit, distances that do not: whichever row seeds the
        // one centroid, the other lies `∞` away.
        let opposite = DenseMatrix::from_rows(&[vec![9e153; 2], vec![-9e153; 2]]).unwrap();
        let mut one = KMeans::new(KMeansConfig {
            k: 1,
            ..KMeansConfig::default()
        });
        assert_eq!(one.fit(&opposite), Err(MlError::Diverged { epoch: 0 }));
        assert!(one.centroids().is_none());
        assert_eq!((one.inertia(), one.iterations()), (f64::INFINITY, 0));
    }
}
