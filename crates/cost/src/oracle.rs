//! Ground truth by measurement.
//!
//! The Table III experiment scores cost models against what is *actually*
//! faster. This module runs both strategies on a real
//! [`FactorizedTable`] — gradient-descent epochs, each the table work
//! `LinearRegression` does per epoch (`GdEpoch`) — and times them. The
//! materialized timing includes materialization itself (the paper's
//! Fig. 2 pipeline joins first, then trains).

use crate::{Decision, TrainingWorkload};
use amalur_factorize::{FactorizedTable, LinOps, Result};
use amalur_matrix::{DenseMatrix, Workspace};
use std::time::{Duration, Instant};

/// The table work of one least-squares gradient-descent epoch, run the
/// way the trainers run it, on buffers kept across epochs: with one
/// model column, [`LinOps::gradient_pass_into`] with the least-squares
/// link (one pass over a dense table; `lmm_into` then
/// `lmm_transpose_into` on a factorized one); wider, the two `_into`
/// products with the residual between them. Shared by the oracle and
/// the calibration probes, so both time the epoch a trainer runs.
pub(crate) struct GdEpoch {
    theta: DenseMatrix,
    y: DenseMatrix,
    resid: DenseMatrix,
    grad: DenseMatrix,
    ws: Workspace,
}

impl GdEpoch {
    /// Buffers for a `rows × cols` table and `x_cols` model columns.
    pub(crate) fn new(rows: usize, cols: usize, x_cols: usize) -> Self {
        Self {
            theta: DenseMatrix::filled(cols, x_cols, 0.5),
            y: DenseMatrix::filled(rows, x_cols, 0.25),
            resid: DenseMatrix::zeros(rows, x_cols),
            grad: DenseMatrix::zeros(cols, x_cols),
            ws: Workspace::new(),
        }
    }

    /// One epoch over `x` (whose shape `new` was given); returns the sum
    /// of squared residuals, which keeps the work observable.
    ///
    /// # Errors
    /// Shape mismatch between `x` and the buffers.
    pub(crate) fn run<L: LinOps>(&mut self, x: &L) -> Result<f64> {
        let Self {
            theta,
            y,
            resid,
            grad,
            ws,
        } = self;
        let mut sq = 0.0;
        if theta.cols() == 1 {
            let y = y.as_slice();
            let mut link = |first: usize, block: &mut [f64]| {
                for (r, &yl) in block.iter_mut().zip(&y[first..]) {
                    *r -= yl;
                }
                for &r in block.iter() {
                    sq += r * r;
                }
            };
            x.gradient_pass_into(theta, &mut link, resid, grad, ws)?;
        } else {
            x.mul_right_into(theta, resid, ws)?;
            resid.sub_assign(y)?;
            sq = resid.frobenius_norm_sq();
            x.t_mul_into(resid, grad, ws)?;
        }
        Ok(sq)
    }
}

/// Timings of the two strategies on one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall time of factorized training.
    pub factorized: Duration,
    /// Wall time of materialization + training on `T`.
    pub materialized: Duration,
}

impl Measurement {
    /// The strategy that actually won.
    pub fn ground_truth(&self) -> Decision {
        if self.factorized <= self.materialized {
            Decision::Factorize
        } else {
            Decision::Materialize
        }
    }

    /// Speed-up of factorization over materialization (> 1 means
    /// factorization is faster).
    pub fn speedup(&self) -> f64 {
        let f = self.factorized.as_secs_f64();
        if f == 0.0 {
            return f64::INFINITY;
        }
        self.materialized.as_secs_f64() / f
    }

    /// Relative gap between the two timings,
    /// `|factorized − materialized| / max(factorized, materialized)`,
    /// in `[0, 1]`. Small gaps mean the "ground truth" is within timing
    /// noise.
    pub fn relative_gap(&self) -> f64 {
        let f = self.factorized.as_secs_f64();
        let m = self.materialized.as_secs_f64();
        let max = f.max(m);
        if max == 0.0 {
            return 0.0;
        }
        (f - m).abs() / max
    }

    /// Whether the two strategies timed within `tolerance` of each other
    /// (relative). Such scenarios are coin flips, not ground truth —
    /// accuracy scoring should exclude them rather than charge models
    /// for mispredicting noise.
    pub fn is_near_tie(&self, tolerance: f64) -> bool {
        self.relative_gap() <= tolerance
    }
}

/// Runs and times both strategies for a GD-shaped workload, taking the
/// **minimum over `reps` repetitions** per strategy after one untimed
/// warm-up run (a single wall-clock sample flips the "ground truth" near
/// the crossover on a noisy machine).
///
/// Each epoch is one `GdEpoch` — `T·θ`, the residual, `Tᵀ·r`, the
/// dominant operations of linear/logistic regression training, fused
/// into one pass where the trainer fuses them; `θ` and `r` have
/// `workload.x_cols` columns.
pub fn measure_strategies_with_reps(
    ft: &FactorizedTable,
    workload: &TrainingWorkload,
    reps: usize,
) -> Measurement {
    let (rows, cols) = ft.target_shape();
    let mut epoch = GdEpoch::new(rows, cols, workload.x_cols);
    let reps = reps.max(1);
    let mut sink = 0.0;

    // Operand shapes are fixed by construction above; a violated
    // invariant turns the sink into NaN instead of panicking mid-run.
    // --- factorized ------------------------------------------------------
    let mut run_factorized = |sink: &mut f64| {
        let start = Instant::now();
        for _ in 0..workload.epochs {
            *sink += epoch.run(ft).unwrap_or(f64::NAN);
        }
        start.elapsed()
    };
    run_factorized(&mut sink); // warm-up, dropped
    let mut factorized = Duration::MAX;
    for _ in 0..reps {
        factorized = factorized.min(run_factorized(&mut sink));
    }

    // --- materialized (join + train) --------------------------------------
    let mut run_materialized = |sink: &mut f64| {
        let start = Instant::now();
        let t = ft.materialize();
        for _ in 0..workload.epochs {
            *sink += epoch.run(&t).unwrap_or(f64::NAN);
        }
        start.elapsed()
    };
    run_materialized(&mut sink); // warm-up, dropped
    let mut materialized = Duration::MAX;
    for _ in 0..reps {
        materialized = materialized.min(run_materialized(&mut sink));
    }
    // Keep the accumulator alive so the work cannot be optimized away.
    assert!(sink.is_finite());

    Measurement {
        factorized,
        materialized,
    }
}

/// [`measure_strategies_with_reps`] with the default 3 repetitions.
pub fn measure_strategies(ft: &FactorizedTable, workload: &TrainingWorkload) -> Measurement {
    measure_strategies_with_reps(ft, workload, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalur_data::TwoSourceSpec;

    fn table(rows_s1: usize, target_redundancy: bool) -> FactorizedTable {
        let spec = TwoSourceSpec::footnote3(rows_s1, target_redundancy, false, 13);
        let (md, data) = amalur_data::generate_two_source(&spec).unwrap();
        FactorizedTable::new(md, data).unwrap()
    }

    #[test]
    fn measurement_produces_positive_times() {
        let ft = table(2000, true);
        let m = measure_strategies(
            &ft,
            &TrainingWorkload {
                epochs: 3,
                x_cols: 1,
            },
        );
        assert!(m.factorized > Duration::ZERO);
        assert!(m.materialized > Duration::ZERO);
        assert!(m.speedup() > 0.0);
    }

    #[test]
    fn ground_truth_picks_smaller_time() {
        let m = Measurement {
            factorized: Duration::from_millis(10),
            materialized: Duration::from_millis(20),
        };
        assert_eq!(m.ground_truth(), Decision::Factorize);
        assert_eq!(m.speedup(), 2.0);
        let m = Measurement {
            factorized: Duration::from_millis(20),
            materialized: Duration::from_millis(10),
        };
        assert_eq!(m.ground_truth(), Decision::Materialize);
    }

    #[test]
    fn near_tie_detection() {
        let m = Measurement {
            factorized: Duration::from_millis(100),
            materialized: Duration::from_millis(101),
        };
        assert!(m.relative_gap() < 0.011);
        assert!(m.is_near_tie(0.02));
        assert!(!m.is_near_tie(0.005));
        let m = Measurement {
            factorized: Duration::from_millis(100),
            materialized: Duration::from_millis(150),
        };
        assert!((m.relative_gap() - 1.0 / 3.0).abs() < 1e-12);
        assert!(!m.is_near_tie(0.02));
        let zero = Measurement {
            factorized: Duration::ZERO,
            materialized: Duration::ZERO,
        };
        assert_eq!(zero.relative_gap(), 0.0);
        assert!(zero.is_near_tie(0.02));
    }

    #[test]
    fn reps_are_clamped_to_at_least_one() {
        let ft = table(500, true);
        let m = measure_strategies_with_reps(
            &ft,
            &TrainingWorkload {
                epochs: 1,
                x_cols: 1,
            },
            0,
        );
        assert!(m.factorized > Duration::ZERO);
        assert!(m.materialized > Duration::ZERO);
    }

    #[test]
    fn redundancy_favours_factorization_at_scale() {
        // With fan-out 5 and a 100-wide dimension table, factorized
        // training touches ~5× fewer cells; at 50k rows the measured
        // advantage is stable even on a noisy machine.
        let ft = table(50_000, true);
        let m = measure_strategies(
            &ft,
            &TrainingWorkload {
                epochs: 10,
                x_cols: 1,
            },
        );
        assert_eq!(
            m.ground_truth(),
            Decision::Factorize,
            "speedup {}",
            m.speedup()
        );
    }
}
