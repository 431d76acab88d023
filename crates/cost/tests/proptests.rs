//! Property tests for the cost model and its calibration.
//!
//! * [`AmalurCostModel`] must be **monotone**: more redundant cells or
//!   more epochs can only make the factorized strategy look worse, and
//!   more target cells can only make the materialized strategy look
//!   worse — for *any* valid (non-negative) hardware profile, fitted or
//!   not. A fit that broke monotonicity would make the optimizer prefer
//!   strictly larger plans.
//! * A fitted [`HardwareProfile`] must reproduce the probe timings it
//!   was fitted from within tolerance (self-consistency of the
//!   least-squares loop on real measurements).

use amalur_cost::{
    calibrate, AmalurCostModel, CalibrationConfig, CostFeatures, HardwareProfile, SourceFeatures,
    TrainingWorkload,
};
use proptest::prelude::{prop_assert, proptest, ProptestConfig};

/// Footnote-3-shaped features with explicit knobs.
fn features(rows_s1: usize, redundant_cells: usize) -> CostFeatures {
    let rows_s2 = (rows_s1 / 5).max(1);
    CostFeatures {
        target_rows: rows_s1,
        target_cols: 101,
        sources: vec![
            SourceFeatures {
                name: "S1".into(),
                rows: rows_s1,
                cols: 1,
                mapped_target_cols: 1,
                matched_target_rows: rows_s1,
                distinct_source_rows: rows_s1,
                redundant_cells: 0,
                correction_cells: 0,
            },
            SourceFeatures {
                name: "S2".into(),
                rows: rows_s2,
                cols: 100,
                mapped_target_cols: 100,
                matched_target_rows: rows_s1,
                distinct_source_rows: rows_s2,
                redundant_cells,
                // Worst case: every redundant cell has a slot of its own.
                correction_cells: redundant_cells,
            },
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn factorized_cost_monotone_in_redundant_cells_and_epochs(
        flop in 0.0f64..5.0,
        traffic in 0.0f64..25.0,
        correction in 0.0f64..10.0,
        assembly in 0.0f64..20.0,
        rows in 10usize..200_000,
        red in 0usize..1_000_000,
        red_extra in 1usize..1_000_000,
        epochs in 1usize..500,
        epochs_extra in 1usize..500,
    ) {
        let model = AmalurCostModel::with_profile(HardwareProfile {
            flop_cost: flop,
            traffic_cost: traffic,
            correction_cost: correction,
            assembly_cost: assembly,
            dispatch_cost: 0.0,
        });
        let w = TrainingWorkload { epochs, x_cols: 1 };
        let base = model.factorized_cost(&features(rows, red), &w);
        // Non-decreasing in redundant cells ...
        let more_red = model.factorized_cost(&features(rows, red + red_extra), &w);
        prop_assert!(more_red >= base, "red {red}+{red_extra}: {more_red} < {base}");
        // ... and in epochs.
        let w_long = TrainingWorkload { epochs: epochs + epochs_extra, x_cols: 1 };
        let longer = model.factorized_cost(&features(rows, red), &w_long);
        prop_assert!(longer >= base, "epochs {epochs}+{epochs_extra}: {longer} < {base}");
    }

    #[test]
    fn materialized_cost_monotone_in_target_cells(
        flop in 0.0f64..5.0,
        traffic in 0.0f64..25.0,
        correction in 0.0f64..10.0,
        assembly in 0.0f64..20.0,
        rows in 10usize..200_000,
        rows_extra in 1usize..200_000,
        epochs in 1usize..500,
    ) {
        let model = AmalurCostModel::with_profile(HardwareProfile {
            flop_cost: flop,
            traffic_cost: traffic,
            correction_cost: correction,
            assembly_cost: assembly,
            dispatch_cost: 0.0,
        });
        let w = TrainingWorkload { epochs, x_cols: 1 };
        // Growing the target (more rows at fixed columns) can only make
        // materialization dearer: both assembly and the per-epoch GEMM
        // scale with target cells.
        let small = features(rows, 0);
        let large = features(rows + rows_extra, 0);
        prop_assert!(large.target_cells() > small.target_cells());
        let c_small = model.materialized_cost(&small, &w);
        let c_large = model.materialized_cost(&large, &w);
        prop_assert!(c_large >= c_small, "target cells up but cost {c_large} < {c_small}");
    }
}

#[test]
fn fitted_profile_reproduces_probe_timings() {
    // Real micro-probes (tiny ladder so the test stays fast in debug
    // builds); the fitted linear model must predict each probe it was
    // fitted from within a loose tolerance — the probes are min-of-reps
    // timings, so residual noise is bounded but not zero.
    let report = calibrate(&CalibrationConfig::quick());
    assert!(
        report.profile.is_valid(),
        "fit produced {:?}",
        report.profile
    );
    assert!(!report.probes.is_empty());
    assert!(
        report.rms_rel_err < 0.75,
        "rms relative error {:.2} too large — fit does not describe the machine",
        report.rms_rel_err
    );
    for p in &report.probes {
        let rel = p.relative_error(&report.profile);
        assert!(
            rel < 4.0,
            "probe {} mispredicted by {:.1}x (measured {:.3} ms, predicted {:.3} ms)",
            p.name,
            rel + 1.0,
            p.measured_ns / 1e6,
            p.predicted_ns(&report.profile) / 1e6,
        );
    }
}
