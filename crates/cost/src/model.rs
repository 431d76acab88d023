//! The decision models: Morpheus' heuristic vs Amalur's analytic model.

use crate::{CostFeatures, HardwareProfile};

/// The optimizer's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Push computation to the sources (Eq. 2 rewrites).
    Factorize,
    /// Join first, train on the target table.
    Materialize,
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Decision::Factorize => "factorize",
            Decision::Materialize => "materialize",
        })
    }
}

/// The training workload the decision is being made for.
#[derive(Debug, Clone, Copy)]
pub struct TrainingWorkload {
    /// Gradient-descent epochs (how often the per-epoch saving repeats).
    pub epochs: usize,
    /// Columns of the operand `X` in `T·X` (1 for plain GD, more for
    /// multi-output models / K-Means).
    pub x_cols: usize,
}

impl Default for TrainingWorkload {
    fn default() -> Self {
        Self {
            epochs: 20,
            x_cols: 1,
        }
    }
}

/// A factorize-or-materialize decision procedure.
pub trait CostModel {
    /// Short display name for reports.
    fn name(&self) -> &'static str;

    /// The decision for the given data statistics and workload.
    fn decide(&self, features: &CostFeatures, workload: &TrainingWorkload) -> Decision;
}

/// The Morpheus decision rule \[27\]: factorize when the **tuple ratio**
/// and **feature ratio** clear fixed thresholds.
///
/// Crucially, both ratios are computed from *table shapes only* — the
/// heuristic never inspects the actual row matching. When the schema
/// looks like a PK–FK star (small wide dimension, large narrow fact) it
/// predicts factorization whether or not the join actually duplicates
/// tuples — the failure mode Table III exposes.
#[derive(Debug, Clone)]
pub struct MorpheusHeuristic {
    /// Factorize when `tuple_ratio ≥` this (paper value: 5).
    pub tuple_ratio_threshold: f64,
    /// ... and `feature_ratio ≥` this (paper value: 1).
    pub feature_ratio_threshold: f64,
}

impl Default for MorpheusHeuristic {
    fn default() -> Self {
        Self {
            tuple_ratio_threshold: 5.0,
            feature_ratio_threshold: 1.0,
        }
    }
}

impl CostModel for MorpheusHeuristic {
    fn name(&self) -> &'static str {
        "Morpheus"
    }

    fn decide(&self, features: &CostFeatures, _workload: &TrainingWorkload) -> Decision {
        // A single source has no join to factorize across: the tuple
        // ratio max/min would degenerate to 1.0 and silently fall through
        // to the threshold comparison — make the case explicit instead.
        if features.sources.len() < 2 {
            return Decision::Materialize;
        }
        // Shape-level tuple ratio: sizes of the tables, not the realized
        // join. For the footnote-3 configuration this is r_S1 / r_S2
        // regardless of the actual matching.
        let max_rows = features
            .sources
            .iter()
            .map(|s| s.rows)
            .max()
            .unwrap_or(1)
            .max(1);
        let min_rows = features
            .sources
            .iter()
            .map(|s| s.rows)
            .min()
            .unwrap_or(1)
            .max(1);
        let tuple_ratio = max_rows as f64 / min_rows as f64;
        let feature_ratio = features.feature_ratio();
        if tuple_ratio >= self.tuple_ratio_threshold
            && feature_ratio >= self.feature_ratio_threshold
        {
            Decision::Factorize
        } else {
            Decision::Materialize
        }
    }
}

/// Amalur's analytic cost model: estimated total cost of both strategies
/// from the DI metadata, pick the cheaper.
///
/// The model prices the *operation counts* of the physical plans (see
/// [`amalur_factorize::OpCounts`]) with a [`HardwareProfile`]:
///
/// * factorized run: `epochs ×` the compressed-strategy epoch counts
///   (per-source GEMMs, gather/scatter traffic, redundancy correction);
/// * materialized run: one-off assembly of the target table plus
///   `epochs ×` two plain GEMMs against `T`.
///
/// With [`HardwareProfile::uncalibrated`] the coefficients are the
/// paper-era magic numbers; `amalur-cost`'s calibration
/// ([`crate::calibrate`](mod@crate::calibrate)) replaces them with per-machine measured costs
/// so the crossover tracks the kernels as they get faster.
#[derive(Debug, Clone, Default)]
pub struct AmalurCostModel {
    /// Per-operation costs (ns per abstract unit once calibrated).
    pub profile: HardwareProfile,
}

impl AmalurCostModel {
    /// Model with measured (or otherwise explicit) per-operation costs.
    pub fn with_profile(profile: HardwareProfile) -> Self {
        Self { profile }
    }

    /// Estimated cost of one factorized training run.
    pub fn factorized_cost(&self, f: &CostFeatures, w: &TrainingWorkload) -> f64 {
        w.epochs as f64 * self.profile.predict(&f.epoch_op_counts(w.x_cols))
    }

    /// Estimated cost of materialization plus training on `T`.
    pub fn materialized_cost(&self, f: &CostFeatures, w: &TrainingWorkload) -> f64 {
        self.profile.predict(&f.materialize_op_counts())
            + w.epochs as f64
                * self
                    .profile
                    .predict(&f.materialized_epoch_op_counts(w.x_cols))
    }
}

impl CostModel for AmalurCostModel {
    fn name(&self) -> &'static str {
        "Amalur"
    }

    fn decide(&self, features: &CostFeatures, workload: &TrainingWorkload) -> Decision {
        if self.factorized_cost(features, workload) < self.materialized_cost(features, workload) {
            Decision::Factorize
        } else {
            Decision::Materialize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFeatures;

    /// Footnote-3 shapes with explicit control over the realized matching.
    fn features(rows_s1: usize, target_redundancy: bool) -> CostFeatures {
        let rows_s2 = (rows_s1 / 5).max(1);
        let (target_rows, matched2, distinct2) = if target_redundancy {
            (rows_s1, rows_s1, rows_s2) // fan-out 5
        } else {
            (rows_s2, rows_s2, rows_s2) // inner 1:1
        };
        CostFeatures {
            target_rows,
            target_cols: 101,
            sources: vec![
                SourceFeatures {
                    name: "S1".into(),
                    rows: rows_s1,
                    cols: 1,
                    mapped_target_cols: 1,
                    matched_target_rows: target_rows,
                    distinct_source_rows: target_rows.min(rows_s1),
                    redundant_cells: 0,
                    correction_cells: 0,
                },
                SourceFeatures {
                    name: "S2".into(),
                    rows: rows_s2,
                    cols: 100,
                    mapped_target_cols: 100,
                    matched_target_rows: matched2,
                    distinct_source_rows: distinct2,
                    redundant_cells: 0,
                    correction_cells: 0,
                },
            ],
        }
    }

    #[test]
    fn morpheus_always_factorizes_footnote3_shapes() {
        // The heuristic sees TR = 5, FR = 100 in every quadrant — it
        // cannot distinguish realized redundancy from schema shape.
        let m = MorpheusHeuristic::default();
        let w = TrainingWorkload::default();
        for red in [true, false] {
            for rows in [100, 10_000, 1_000_000] {
                assert_eq!(m.decide(&features(rows, red), &w), Decision::Factorize);
            }
        }
    }

    #[test]
    fn morpheus_materializes_low_ratio_shapes() {
        let m = MorpheusHeuristic::default();
        let w = TrainingWorkload::default();
        // Equal-size sources: TR = 1 < 5.
        let mut f = features(1000, true);
        f.sources[1].rows = 1000;
        assert_eq!(m.decide(&f, &w), Decision::Materialize);
    }

    #[test]
    fn morpheus_materializes_single_source() {
        // One source: max rows == min rows would yield tuple ratio 1.0 by
        // accident; the explicit rule says there is nothing to factorize
        // across.
        let m = MorpheusHeuristic::default();
        let w = TrainingWorkload::default();
        let mut f = features(1000, true);
        f.sources.truncate(1);
        assert_eq!(m.decide(&f, &w), Decision::Materialize);
        f.sources.clear();
        assert_eq!(m.decide(&f, &w), Decision::Materialize);
    }

    #[test]
    fn amalur_factorizes_with_target_redundancy() {
        let a = AmalurCostModel::default();
        let w = TrainingWorkload::default();
        let f = features(100_000, true);
        // Target = 100k × 101 cells, sources = 100k + 20k·100 = 2.1M cells
        // per epoch vs 10.1M — factorization clearly wins.
        assert_eq!(a.decide(&f, &w), Decision::Factorize);
    }

    #[test]
    fn amalur_materializes_without_target_redundancy() {
        let a = AmalurCostModel::default();
        let w = TrainingWorkload::default();
        let f = features(100_000, false);
        // Inner 1:1: target = 20k × 101 ≈ 2.02M cells; factorized still
        // pays the full 2.1M source cells per epoch plus traffic.
        assert_eq!(a.decide(&f, &w), Decision::Materialize);
    }

    #[test]
    fn amalur_cost_components_scale_with_epochs() {
        let a = AmalurCostModel::default();
        let f = features(10_000, true);
        let short = TrainingWorkload {
            epochs: 1,
            x_cols: 1,
        };
        let long = TrainingWorkload {
            epochs: 100,
            x_cols: 1,
        };
        assert!(a.factorized_cost(&f, &long) > a.factorized_cost(&f, &short) * 50.0);
        // Assembly is paid once: the materialized cost grows less than
        // linearly in epochs.
        let m_short = a.materialized_cost(&f, &short);
        let m_long = a.materialized_cost(&f, &long);
        assert!(m_long < m_short * 100.0);
    }

    #[test]
    fn decision_display() {
        assert_eq!(Decision::Factorize.to_string(), "factorize");
        assert_eq!(Decision::Materialize.to_string(), "materialize");
    }

    #[test]
    fn redundant_cells_penalize_factorization() {
        let a = AmalurCostModel::default();
        let w = TrainingWorkload::default();
        let mut f = features(10_000, true);
        let base = a.factorized_cost(&f, &w);
        // What factorization pays for is the slot-level correction the
        // redundant cells cause, at most one cell each.
        f.sources[1].redundant_cells = 1_000_000;
        f.sources[1].correction_cells = 1_000_000;
        assert!(a.factorized_cost(&f, &w) > base);
    }

    #[test]
    fn calibrated_profile_shifts_the_crossover() {
        // Same features, two profiles: when assembly is expensive
        // relative to flops, factorization wins configurations the
        // flop-dominated profile would materialize.
        let f = features(100_000, false);
        let w = TrainingWorkload::default();
        let flop_heavy = AmalurCostModel::with_profile(HardwareProfile {
            flop_cost: 10.0,
            traffic_cost: 1.0,
            correction_cost: 1.0,
            assembly_cost: 1.0,
            dispatch_cost: 0.0,
        });
        let assembly_heavy = AmalurCostModel::with_profile(HardwareProfile {
            flop_cost: 0.05,
            traffic_cost: 0.1,
            correction_cost: 0.1,
            assembly_cost: 50.0,
            dispatch_cost: 0.0,
        });
        assert_eq!(flop_heavy.decide(&f, &w), Decision::Materialize);
        assert_eq!(assembly_heavy.decide(&f, &w), Decision::Factorize);
    }
}
