//! Shared harness pieces for the table/figure report binaries.
//!
//! Each report binary under `src/bin/` names the table or figure of the
//! paper it regenerates in its own header; the verify skill
//! (`.claude/skills/verify/SKILL.md`) lists the commands. Every
//! `BENCH_*.json` a binary writes goes through [`write_report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amalur_cost::{
    measure_strategies, AmalurCostModel, CostFeatures, CostModel, Decision, Measurement,
    MorpheusHeuristic, TrainingWorkload,
};
use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::FactorizedTable;
use serde::Serialize;
use std::path::Path;

/// Writes `report` to `path` as indented JSON and prints `wrote <path>`.
/// A non-finite float field is written as `null`.
///
/// # Panics
/// Panics when `path` cannot be written.
pub fn write_report(path: impl AsRef<Path>, report: &impl Serialize) {
    let path = path.as_ref();
    let json = serde_json::to_string_pretty(report).expect("every value tree serializes");
    std::fs::write(path, json + "\n").expect("writable report path");
    println!("wrote {}", path.display());
}

/// Builds the footnote-3 configuration as a factorized table.
///
/// # Panics
/// Panics on generator inconsistencies (programming error in the spec).
pub fn footnote3_table(
    rows_s1: usize,
    target_redundancy: bool,
    source_redundancy: bool,
    seed: u64,
) -> FactorizedTable {
    let spec = TwoSourceSpec::footnote3(rows_s1, target_redundancy, source_redundancy, seed);
    let (md, data) = generate_two_source(&spec).expect("footnote-3 spec is valid");
    FactorizedTable::new(md, data).expect("generator produces consistent metadata")
}

/// Relative timing gap below which a scenario counts as a near-tie: the
/// measured "ground truth" is a coin flip, so accuracy scoring excludes
/// it from the denominator instead of charging models for noise.
pub const NEAR_TIE_TOLERANCE: f64 = 0.02;

/// One measured Table III scenario with both models' calls.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// `r_S1` of the configuration.
    pub rows_s1: usize,
    /// Measured ground truth (whichever strategy timed faster).
    pub truth: Decision,
    /// Morpheus' call.
    pub morpheus: Decision,
    /// Amalur's call.
    pub amalur: Decision,
    /// Measured factorization speedup (> 1 ⇒ factorize won).
    pub speedup: f64,
    /// Timings within [`NEAR_TIE_TOLERANCE`] of each other — excluded
    /// from the accuracy denominator.
    pub near_tie: bool,
}

/// One Table III cell: % of correct decisions per model over a ladder of
/// `r_S1` values.
#[derive(Debug, Clone)]
pub struct QuadrantResult {
    /// Redundancy present in the source tables?
    pub source_redundancy: bool,
    /// Redundancy present in the target table?
    pub target_redundancy: bool,
    /// Fraction of correct Morpheus decisions (0..=1) over the scored
    /// (non-near-tie) scenarios.
    pub morpheus_correct: f64,
    /// Fraction of correct Amalur decisions (0..=1) over the scored
    /// (non-near-tie) scenarios.
    pub amalur_correct: f64,
    /// Scenarios excluded from scoring as near-ties.
    pub excluded: usize,
    /// Per-scenario details.
    pub scenarios: Vec<Scenario>,
}

/// Runs one quadrant of the Table III experiment: for every `r_S1` in
/// `ladder`, generate the configuration, measure the ground truth (min
/// over repetitions), ask both models, and score them over the
/// non-near-tie scenarios. `amalur` carries the (ideally calibrated)
/// [`HardwareProfile`](amalur_cost::HardwareProfile).
pub fn run_quadrant(
    ladder: &[usize],
    target_redundancy: bool,
    source_redundancy: bool,
    workload: &TrainingWorkload,
    amalur: &AmalurCostModel,
) -> QuadrantResult {
    let morpheus = MorpheusHeuristic::default();
    let mut scenarios = Vec::with_capacity(ladder.len());
    let mut m_ok = 0usize;
    let mut a_ok = 0usize;
    let mut excluded = 0usize;
    for (i, &rows) in ladder.iter().enumerate() {
        let ft = footnote3_table(rows, target_redundancy, source_redundancy, 1000 + i as u64);
        let features = CostFeatures::from_table(&ft);
        let measured = measure_strategies(&ft, workload);
        let truth = measured.ground_truth();
        let near_tie = measured.is_near_tie(NEAR_TIE_TOLERANCE);
        let m = morpheus.decide(&features, workload);
        let a = amalur.decide(&features, workload);
        if near_tie {
            excluded += 1;
        } else {
            m_ok += usize::from(m == truth);
            a_ok += usize::from(a == truth);
        }
        scenarios.push(Scenario {
            rows_s1: rows,
            truth,
            morpheus: m,
            amalur: a,
            speedup: measured.speedup(),
            near_tie,
        });
    }
    let scored = ladder.len() - excluded;
    // With every scenario inside the noise band there is no evidence of
    // error against either model.
    let frac = |ok: usize| {
        if scored == 0 {
            1.0
        } else {
            ok as f64 / scored as f64
        }
    };
    QuadrantResult {
        source_redundancy,
        target_redundancy,
        morpheus_correct: frac(m_ok),
        amalur_correct: frac(a_ok),
        excluded,
        scenarios,
    }
}

/// One Figure 5 grid point: a configuration at the given tuple and
/// feature ratios, with its measured speedup and the models' calls.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Tuple ratio (r_S1 / r_S2; fan-out of the dimension table).
    pub tuple_ratio: usize,
    /// Feature ratio (c_S2 / c_S1).
    pub feature_ratio: f64,
    /// Measured factorization speedup (>1 ⇒ factorize wins).
    pub speedup: f64,
    /// Measured ground truth.
    pub truth: Decision,
    /// Morpheus' call.
    pub morpheus: Decision,
    /// Amalur's call.
    pub amalur: Decision,
}

/// Sweeps the (tuple ratio × feature ratio) plane of Figure 5. `amalur`
/// carries the (ideally calibrated) profile.
pub fn figure5_sweep(
    rows_s1: usize,
    tuple_ratios: &[usize],
    feature_ratios: &[usize],
    workload: &TrainingWorkload,
    amalur: &AmalurCostModel,
) -> Vec<GridPoint> {
    let morpheus = MorpheusHeuristic::default();
    let cols_s1 = 2usize;
    let mut out = Vec::with_capacity(tuple_ratios.len() * feature_ratios.len());
    for &tr in tuple_ratios {
        for &fr in feature_ratios {
            let spec = TwoSourceSpec {
                rows_s1,
                cols_s1,
                rows_s2: (rows_s1 / tr).max(1),
                cols_s2: (cols_s1 * fr).max(1),
                shared_cols: 0,
                target_redundancy: tr > 1,
                row_coverage: 1.0,
                source_redundancy: false,
                seed: (tr * 1000 + fr) as u64,
            };
            let (md, data) = generate_two_source(&spec).expect("valid sweep spec");
            let ft =
                FactorizedTable::new(md, data).expect("generator produces consistent metadata");
            let features = CostFeatures::from_table(&ft);
            let measured: Measurement = measure_strategies(&ft, workload);
            out.push(GridPoint {
                tuple_ratio: tr,
                feature_ratio: fr as f64,
                speedup: measured.speedup(),
                truth: measured.ground_truth(),
                morpheus: morpheus.decide(&features, workload),
                amalur: amalur.decide(&features, workload),
            });
        }
    }
    out
}

/// Formats a decision as a single map character: `F` = factorize wins,
/// `m` = materialize wins.
pub fn decision_char(d: Decision) -> char {
    match d {
        Decision::Factorize => 'F',
        Decision::Materialize => 'm',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footnote3_table_shapes() {
        let ft = footnote3_table(500, true, false, 1);
        assert_eq!(ft.target_shape(), (500, 101));
        let ft = footnote3_table(500, false, false, 1);
        assert_eq!(ft.target_shape(), (100, 101)); // inner 1:1 shrinks
    }

    #[test]
    fn quadrant_runner_scores_models() {
        let workload = TrainingWorkload {
            epochs: 4,
            x_cols: 1,
        };
        let amalur = AmalurCostModel::default();
        let q = run_quadrant(&[100, 1000], true, false, &workload, &amalur);
        assert_eq!(q.scenarios.len(), 2);
        assert!(q.excluded <= 2);
        assert!((0.0..=1.0).contains(&q.morpheus_correct));
        assert!((0.0..=1.0).contains(&q.amalur_correct));
        // Excluded scenarios are exactly the near-tie-flagged ones.
        assert_eq!(
            q.scenarios.iter().filter(|s| s.near_tie).count(),
            q.excluded
        );
    }

    #[test]
    fn fully_excluded_quadrant_scores_perfect() {
        // Degenerate 1-row configurations time as near-ties or not — but
        // the accounting identity must hold either way: scored + excluded
        // = scenarios, and an all-excluded quadrant scores 1.0.
        let workload = TrainingWorkload {
            epochs: 1,
            x_cols: 1,
        };
        let amalur = AmalurCostModel::default();
        let q = run_quadrant(&[10], true, false, &workload, &amalur);
        if q.excluded == 1 {
            assert_eq!(q.morpheus_correct, 1.0);
            assert_eq!(q.amalur_correct, 1.0);
        }
    }

    #[test]
    fn figure5_sweep_covers_grid() {
        let workload = TrainingWorkload {
            epochs: 2,
            x_cols: 1,
        };
        let amalur = AmalurCostModel::default();
        let grid = figure5_sweep(500, &[1, 8], &[1, 8], &workload, &amalur);
        assert_eq!(grid.len(), 4);
        assert!(grid.iter().all(|g| g.speedup > 0.0));
    }

    #[derive(Serialize)]
    struct NonFinite {
        nan: f64,
        inf: f64,
        finite: f64,
    }

    #[test]
    fn report_writes_non_finite_floats_as_null() {
        let path =
            std::env::temp_dir().join(format!("amalur-bench-report-{}.json", std::process::id()));
        let report = NonFinite {
            nan: f64::NAN,
            inf: f64::INFINITY,
            finite: 0.5,
        };
        write_report(&path, &report);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let parsed: serde::Value = serde_json::from_str(&text).expect("the report parses");
        assert_eq!(parsed.get("nan"), Some(&serde::Value::Null));
        assert_eq!(parsed.get("inf"), Some(&serde::Value::Null));
        assert_eq!(parsed.get("finite"), Some(&serde::Value::Float(0.5)));
    }

    #[test]
    fn decision_chars() {
        assert_eq!(decision_char(Decision::Factorize), 'F');
        assert_eq!(decision_char(Decision::Materialize), 'm');
    }
}
