//! Measurement-calibrated hardware profiles (the self-tuning cost model).
//!
//! The analytic model in [`crate::AmalurCostModel`] prices plans as a
//! linear function of their operation counts. Fixed coefficients rot:
//! every kernel speedup (e.g. the packed GEMM rewrite) silently moves the
//! real factorize-vs-materialize crossover away from the hardcoded one.
//! This module re-derives the coefficients from the machine itself:
//!
//! 1. **Probe** — run a small ladder of micro-benchmarks against real
//!    [`FactorizedTable`]s from the footnote-3 generator family: the
//!    compressed factorized epoch (GEMM + gather/scatter + redundancy
//!    correction), the dense epoch on the materialized table — each the
//!    epoch a trainer runs, through the oracle's `GdEpoch`, so at
//!    `x_cols = 1` the dense one is a single fused pass — and
//!    target-table assembly. Each probe is timed like the oracle: one
//!    warm-up run, then the minimum over several repetitions.
//! 2. **Fit** — least-squares the measured nanoseconds against the
//!    probes' [`OpCounts`] (relative error weighting, non-negative
//!    coefficients) to obtain a [`HardwareProfile`].
//! 3. **Persist** — save/load the profile as `COST_PROFILE.json` next to
//!    `BENCH_kernels.json`, so report binaries can
//!    [`load_or_calibrate`] instead of re-measuring every run.

use crate::oracle::GdEpoch;
use crate::CostFeatures;
use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::{FactorizedTable, OpCounts};
use amalur_matrix::DenseMatrix;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Default location of the persisted profile (workspace root, next to
/// `BENCH_kernels.json`).
pub const COST_PROFILE_FILE: &str = "COST_PROFILE.json";

/// Schema tag written into the profile file.
const PROFILE_SCHEMA: &str = "amalur-cost-profile/v2";

/// Fitted per-operation costs, in nanoseconds per abstract unit.
///
/// A profile prices an [`OpCounts`] via [`HardwareProfile::predict`]; the
/// five coefficients correspond one-to-one to the five count classes.
/// `dispatch_cost` is the intercept-like term: nanoseconds of fixed
/// overhead per kernel dispatch, independent of operand sizes — without
/// it the model systematically under-estimates factorized plans on
/// sub-ms tiny tables (many per-source dispatches, little work each).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareProfile {
    /// Cost per dense GEMM flop.
    pub flop_cost: f64,
    /// Cost per cell of gather/scatter traffic over compressed metadata.
    pub traffic_cost: f64,
    /// Cost per redundancy-corrected cell.
    pub correction_cost: f64,
    /// Cost per cell written/read while assembling the target table.
    pub assembly_cost: f64,
    /// Fixed cost per kernel dispatch (the intercept; see type docs).
    pub dispatch_cost: f64,
}

impl Default for HardwareProfile {
    fn default() -> Self {
        Self::uncalibrated()
    }
}

impl HardwareProfile {
    /// The paper-era magic numbers, kept as the uncalibrated fallback:
    /// flops at unit cost, irregular traffic an order of magnitude
    /// dearer, assembly four flops per cell. These encode the *relative*
    /// costs the old `factorized_overhead`/`assembly_weight` constants
    /// assumed — correct before the packed-GEMM rewrite, stale after it.
    pub fn uncalibrated() -> Self {
        Self {
            flop_cost: 1.0,
            traffic_cost: 10.0,
            correction_cost: 2.0,
            assembly_cost: 4.0,
            // The paper-era model had no intercept; calibration fits one.
            dispatch_cost: 0.0,
        }
    }

    /// Predicted time (ns once calibrated; abstract units otherwise) for
    /// the given operation counts.
    pub fn predict(&self, counts: &OpCounts) -> f64 {
        self.flop_cost * counts.gemm_flops
            + self.traffic_cost * counts.traffic_cells
            + self.correction_cost * counts.correction_cells
            + self.assembly_cost * counts.assembly_cells
            + self.dispatch_cost * counts.dispatch_calls
    }

    /// Whether the profile is usable: all coefficients finite and
    /// non-negative, at least one strictly positive.
    pub fn is_valid(&self) -> bool {
        let cs = [
            self.flop_cost,
            self.traffic_cost,
            self.correction_cost,
            self.assembly_cost,
            self.dispatch_cost,
        ];
        cs.iter().all(|c| c.is_finite() && *c >= 0.0) && cs.iter().any(|c| *c > 0.0)
    }

    /// Loads a previously fitted profile. Returns `None` when the file is
    /// missing, unparsable, has a different schema, or fails
    /// [`Self::is_valid`] — callers then fall back to calibration.
    pub fn load(path: &Path) -> Option<HardwareProfile> {
        let text = std::fs::read_to_string(path).ok()?;
        let stored: StoredProfile = serde_json::from_str(&text).ok()?;
        if stored.schema != PROFILE_SCHEMA {
            return None;
        }
        let profile = HardwareProfile {
            flop_cost: stored.flop_cost,
            traffic_cost: stored.traffic_cost,
            correction_cost: stored.correction_cost,
            assembly_cost: stored.assembly_cost,
            dispatch_cost: stored.dispatch_cost,
        };
        profile.is_valid().then_some(profile)
    }
}

/// On-disk representation of a fitted profile plus fit diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoredProfile {
    schema: String,
    flop_cost: f64,
    traffic_cost: f64,
    correction_cost: f64,
    assembly_cost: f64,
    dispatch_cost: f64,
    probe_count: usize,
    rms_rel_err: f64,
    max_rel_err: f64,
}

/// One timed micro-benchmark with its regression features.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Human-readable description (`fact_epoch r_S1=2000 red=target`, …).
    pub name: String,
    /// Operation counts of what was timed.
    pub counts: OpCounts,
    /// Minimum wall time over the repetitions, nanoseconds.
    pub measured_ns: f64,
}

impl Probe {
    /// The profile's prediction for this probe.
    pub fn predicted_ns(&self, profile: &HardwareProfile) -> f64 {
        profile.predict(&self.counts)
    }

    /// Relative prediction error `|pred − meas| / meas`.
    pub fn relative_error(&self, profile: &HardwareProfile) -> f64 {
        if self.measured_ns <= 0.0 {
            return 0.0;
        }
        (self.predicted_ns(profile) - self.measured_ns).abs() / self.measured_ns
    }
}

/// Knobs of the calibration ladder.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// `r_S1` sizes probed (footnote-3 scaling: `r_S2 = r_S1/5`).
    pub ladder: Vec<usize>,
    /// Timed repetitions per probe (min is taken; one extra warm-up run).
    pub reps: usize,
    /// Columns of the GD operand `X`.
    pub x_cols: usize,
    /// Target abstract work units per timing sample; small probes are
    /// looped until a sample reaches roughly this much work.
    pub sample_units: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            // The tiny rung exists to identify `dispatch_cost`: at
            // r_S1 = 60 the fixed per-dispatch overhead is a visible
            // fraction of the measured time.
            ladder: vec![60, 2_000, 6_000, 20_000],
            reps: 3,
            x_cols: 1,
            sample_units: 4e6,
        }
    }
}

impl CalibrationConfig {
    /// Small ladder for tests and `--quick` runs.
    pub fn quick() -> Self {
        Self {
            ladder: vec![60, 500, 2_000],
            reps: 2,
            sample_units: 4e5,
            ..Self::default()
        }
    }
}

/// A fitted profile together with the probes that produced it.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// The fitted per-operation costs.
    pub profile: HardwareProfile,
    /// The micro-benchmarks the fit was computed from.
    pub probes: Vec<Probe>,
    /// Root-mean-square relative prediction error over the probes.
    pub rms_rel_err: f64,
    /// Worst single-probe relative prediction error.
    pub max_rel_err: f64,
}

impl CalibrationReport {
    /// Serializes the profile (+ diagnostics) to `path` as JSON.
    ///
    /// # Errors
    /// I/O errors from the write.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let stored = StoredProfile {
            schema: PROFILE_SCHEMA.to_owned(),
            flop_cost: self.profile.flop_cost,
            traffic_cost: self.profile.traffic_cost,
            correction_cost: self.profile.correction_cost,
            assembly_cost: self.profile.assembly_cost,
            dispatch_cost: self.profile.dispatch_cost,
            probe_count: self.probes.len(),
            rms_rel_err: self.rms_rel_err,
            max_rel_err: self.max_rel_err,
        };
        let text = serde_json::to_string_pretty(&stored)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(path, text + "\n")
    }
}

/// Where a profile came from (for report headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileSource {
    /// Read from a previously saved `COST_PROFILE.json`.
    Loaded,
    /// Freshly measured (and saved, best-effort) by this process.
    Calibrated,
}

impl std::fmt::Display for ProfileSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProfileSource::Loaded => "loaded",
            ProfileSource::Calibrated => "calibrated",
        })
    }
}

/// Loads the profile from `path`, or calibrates and saves one when the
/// file is missing or invalid. The save is best-effort: an unwritable
/// directory still yields a usable (freshly calibrated) profile.
pub fn load_or_calibrate(
    path: &Path,
    config: &CalibrationConfig,
) -> (HardwareProfile, ProfileSource) {
    if let Some(profile) = HardwareProfile::load(path) {
        return (profile, ProfileSource::Loaded);
    }
    let report = calibrate(config);
    let _ = report.save(path);
    (report.profile, ProfileSource::Calibrated)
}

/// Runs the probe ladder and fits a [`HardwareProfile`].
///
/// Three silo configurations per ladder size — PK–FK fan-out (target
/// redundancy), inner 1:1 (no redundancy), and a shared-column variant
/// (redundant cells exercising the correction path) — each measured
/// three ways: factorized epoch, materialized epoch, assembly.
pub fn calibrate(config: &CalibrationConfig) -> CalibrationReport {
    let mut probes = Vec::new();
    for (i, &rows_s1) in config.ladder.iter().enumerate() {
        let seed = 0xCA11 + i as u64;
        for (tag, spec) in ladder_specs(rows_s1, seed) {
            // The ladder specs are built in-module and always valid; a
            // violated invariant just drops the probe (an empty probe set
            // falls back to the uncalibrated profile in `fit_profile`).
            let Ok((md, data)) = generate_two_source(&spec) else {
                continue;
            };
            let Ok(ft) = FactorizedTable::new(md, data) else {
                continue;
            };
            probes.extend(probe_table(&ft, tag, rows_s1, config));
        }
    }
    let profile = fit_profile(&probes);
    let (rms, max) = fit_errors(&probes, &profile);
    CalibrationReport {
        profile,
        probes,
        rms_rel_err: rms,
        max_rel_err: max,
    }
}

/// The three probed silo configurations at one ladder size.
fn ladder_specs(rows_s1: usize, seed: u64) -> Vec<(&'static str, TwoSourceSpec)> {
    let base = TwoSourceSpec::footnote3(rows_s1, true, false, seed);
    let inner = TwoSourceSpec::footnote3(rows_s1, false, false, seed + 1);
    // Shared-column variant: S1 and S2 overlap on one target column, so
    // every matched row carries a redundant cell — the correction path.
    let shared = TwoSourceSpec {
        cols_s1: 2,
        shared_cols: 1,
        ..TwoSourceSpec::footnote3(rows_s1, true, false, seed + 2)
    };
    vec![
        ("red=target", base),
        ("red=none", inner),
        ("red=cells", shared),
    ]
}

/// Times the three strategy-level operations on one table.
fn probe_table(
    ft: &FactorizedTable,
    tag: &str,
    rows_s1: usize,
    config: &CalibrationConfig,
) -> Vec<Probe> {
    let (rows, cols) = ft.target_shape();
    let n = config.x_cols;
    // The epoch the trainers run, on both backends (see `GdEpoch`).
    let mut epoch = GdEpoch::new(rows, cols, n);

    // Probes are priced by the struct the model prices with at decision
    // time, so the fit and the decision share one op-count derivation.
    let features = CostFeatures::from_table(ft);
    let fact_counts = features.epoch_op_counts(n);
    // Operand shapes are fixed by construction above; a violated
    // invariant times an error path instead of panicking.
    let fact_ns = min_time_ns(
        config,
        &crate::metrics::FACT_EPOCH_NS,
        fact_counts.total_units(),
        || {
            black_box(epoch.run(ft).ok());
        },
    );

    let assembly_counts = features.materialize_op_counts();
    let assembly_ns = min_time_ns(
        config,
        &crate::metrics::ASSEMBLY_NS,
        assembly_counts.total_units(),
        || {
            black_box(ft.materialize().get(0, 0));
        },
    );

    let t = ft.materialize();
    let mat_counts = features.materialized_epoch_op_counts(n);
    let mat_ns = min_time_ns(
        config,
        &crate::metrics::MAT_EPOCH_NS,
        mat_counts.total_units(),
        || {
            black_box(epoch.run(&t).ok());
        },
    );

    vec![
        Probe {
            name: format!("fact_epoch r_S1={rows_s1} {tag}"),
            counts: fact_counts,
            measured_ns: fact_ns,
        },
        Probe {
            name: format!("assembly   r_S1={rows_s1} {tag}"),
            counts: assembly_counts,
            measured_ns: assembly_ns,
        },
        Probe {
            name: format!("mat_epoch  r_S1={rows_s1} {tag}"),
            counts: mat_counts,
            measured_ns: mat_ns,
        },
    ]
}

/// Oracle-style timing: one warm-up run, then the minimum ns-per-call
/// over `reps` samples; small operations are looped within a sample so
/// each sample covers at least `sample_units` of abstract work. Each
/// sample also lands in `hist`, preserving the spread that the min
/// estimator collapses.
fn min_time_ns(
    config: &CalibrationConfig,
    hist: &amalur_obs::Histogram,
    units: f64,
    mut f: impl FnMut(),
) -> f64 {
    let inner = ((config.sample_units / units.max(1.0)).ceil() as usize).clamp(1, 256);
    f(); // warm-up: page in buffers, warm caches
    let mut best = f64::INFINITY;
    for _ in 0..config.reps.max(1) {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / inner as f64;
        hist.record(ns as u64);
        best = best.min(ns);
    }
    best
}

/// Non-negative least squares of `measured ≈ profile · counts` with
/// relative-error weighting (each probe's row is scaled by
/// `1 / measured`, so small probes count as much as large ones).
///
/// Solved by an active-set loop over the five coefficients: solve the
/// ridge-stabilized normal equations for the active set, drop the most
/// negative coefficient, repeat. Dropped coefficients are clamped to 0.
fn fit_profile(probes: &[Probe]) -> HardwareProfile {
    let rows: Vec<([f64; 5], f64)> = probes
        .iter()
        .filter(|p| p.measured_ns > 0.0)
        .map(|p| {
            let w = 1.0 / p.measured_ns;
            (
                [
                    p.counts.gemm_flops * w,
                    p.counts.traffic_cells * w,
                    p.counts.correction_cells * w,
                    p.counts.assembly_cells * w,
                    p.counts.dispatch_calls * w,
                ],
                1.0,
            )
        })
        .collect();
    if rows.is_empty() {
        return HardwareProfile::uncalibrated();
    }

    // Column equilibration: the weighted dispatch column is orders of
    // magnitude smaller than the flop column (a handful of calls vs
    // millions of flops per probe). Normalizing each column to unit
    // Euclidean norm keeps the shared ridge from crushing the small
    // coefficients; the solution is unscaled at the end.
    let mut col_scale = [0.0f64; 5];
    for (a, _) in &rows {
        for (j, &v) in a.iter().enumerate() {
            col_scale[j] += v * v;
        }
    }
    for s in &mut col_scale {
        *s = s.sqrt();
    }
    let rows: Vec<([f64; 5], f64)> = rows
        .into_iter()
        .map(|(mut a, b)| {
            for (v, s) in a.iter_mut().zip(&col_scale) {
                if *s > 0.0 {
                    *v /= s;
                }
            }
            (a, b)
        })
        .collect();

    // Columns with no signal in any probe are unidentifiable: clamp to 0.
    let mut active = [true; 5];
    for (j, &s) in col_scale.iter().enumerate() {
        if s == 0.0 {
            active[j] = false;
        }
    }
    loop {
        let idx: Vec<usize> = (0..5).filter(|&j| active[j]).collect();
        if idx.is_empty() {
            return HardwareProfile::uncalibrated();
        }
        let k = idx.len();
        // Normal equations AᵀA x = Aᵀb over the active columns.
        let mut ata = DenseMatrix::zeros(k, k);
        let mut atb = DenseMatrix::zeros(k, 1);
        for (a, b) in &rows {
            for (p, &jp) in idx.iter().enumerate() {
                for (q, &jq) in idx.iter().enumerate() {
                    let v = ata.get(p, q) + a[jp] * a[jq];
                    ata.set(p, q, v);
                }
                let v = atb.get(p, 0) + a[jp] * b;
                atb.set(p, 0, v);
            }
        }
        // Tiny ridge keeps near-collinear or unexercised columns solvable.
        let ridge = 1e-9 * (0..k).map(|p| ata.get(p, p)).sum::<f64>().max(1e-30) / k as f64;
        for p in 0..k {
            let v = ata.get(p, p) + ridge;
            ata.set(p, p, v);
        }
        let Ok(x) = ata.solve(&atb) else {
            return HardwareProfile::uncalibrated();
        };
        // Drop the most negative coefficient, if any, and re-solve.
        let mut worst: Option<(usize, f64)> = None;
        for (p, &j) in idx.iter().enumerate() {
            let v = x.get(p, 0);
            if v < 0.0 && worst.is_none_or(|(_, w)| v < w) {
                worst = Some((j, v));
            }
        }
        if let Some((j, _)) = worst {
            active[j] = false;
            continue;
        }
        let mut coefs = [0.0f64; 5];
        for (p, &j) in idx.iter().enumerate() {
            coefs[j] = x.get(p, 0) / col_scale[j];
        }
        let profile = HardwareProfile {
            flop_cost: coefs[0],
            traffic_cost: coefs[1],
            correction_cost: coefs[2],
            assembly_cost: coefs[3],
            dispatch_cost: coefs[4],
        };
        return if profile.is_valid() {
            profile
        } else {
            HardwareProfile::uncalibrated()
        };
    }
}

/// (RMS, max) relative prediction error of `profile` over `probes`.
fn fit_errors(probes: &[Probe], profile: &HardwareProfile) -> (f64, f64) {
    let errs: Vec<f64> = probes
        .iter()
        .filter(|p| p.measured_ns > 0.0)
        .map(|p| p.relative_error(profile))
        .collect();
    if errs.is_empty() {
        return (0.0, 0.0);
    }
    let rms = (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt();
    let max = errs.iter().cloned().fold(0.0, f64::max);
    (rms, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_probes(profile: &HardwareProfile) -> Vec<Probe> {
        // Exactly-linear timings: the fit must recover the coefficients.
        let mut probes = Vec::new();
        // Dispatch counts mimic real probes: a handful of calls per
        // probe, with tiny probes (low unit counts) mixed in so the
        // intercept is identifiable.
        for (g, t, c, a, d) in [
            (1e6, 0.0, 0.0, 0.0, 2.0),
            (2e6, 1e4, 0.0, 0.0, 4.0),
            (4e6, 8e4, 0.0, 0.0, 4.0),
            (1e6, 2e4, 5e3, 0.0, 4.0),
            (3e6, 6e4, 2e4, 0.0, 6.0),
            (0.0, 0.0, 0.0, 1e5, 2.0),
            (0.0, 0.0, 0.0, 7e5, 3.0),
            (5e5, 0.0, 0.0, 3e5, 2.0),
            (1e3, 2e2, 0.0, 0.0, 4.0),
            (4e2, 1e2, 0.0, 0.0, 2.0),
        ] {
            let counts = OpCounts {
                gemm_flops: g,
                traffic_cells: t,
                correction_cells: c,
                assembly_cells: a,
                dispatch_calls: d,
            };
            probes.push(Probe {
                name: format!("synthetic {g} {t} {c} {a} {d}"),
                counts,
                measured_ns: profile.predict(&counts),
            });
        }
        probes
    }

    #[test]
    fn fit_recovers_exact_linear_timings() {
        let truth = HardwareProfile {
            flop_cost: 0.35,
            traffic_cost: 4.2,
            correction_cost: 1.7,
            assembly_cost: 9.0,
            dispatch_cost: 1.5e4,
        };
        let fitted = fit_profile(&synthetic_probes(&truth));
        assert!((fitted.flop_cost - truth.flop_cost).abs() < 1e-3);
        assert!((fitted.traffic_cost - truth.traffic_cost).abs() < 0.1);
        assert!((fitted.correction_cost - truth.correction_cost).abs() < 0.1);
        assert!((fitted.assembly_cost - truth.assembly_cost).abs() < 0.1);
        assert!(
            (fitted.dispatch_cost - truth.dispatch_cost).abs() < 0.01 * truth.dispatch_cost,
            "dispatch intercept not recovered: {}",
            fitted.dispatch_cost
        );
        let (rms, max) = fit_errors(&synthetic_probes(&truth), &fitted);
        assert!(rms < 1e-6, "rms {rms}");
        assert!(max < 1e-5, "max {max}");
    }

    #[test]
    fn fit_clamps_negative_coefficients() {
        // Timings that *decrease* with correction cells would push the
        // coefficient negative; the active-set loop must clamp it to 0.
        let mut probes = synthetic_probes(&HardwareProfile {
            flop_cost: 1.0,
            traffic_cost: 2.0,
            correction_cost: 0.0,
            assembly_cost: 3.0,
            dispatch_cost: 0.0,
        });
        for p in &mut probes {
            if p.counts.correction_cells > 0.0 {
                p.measured_ns = (p.measured_ns - 3.0 * p.counts.correction_cells).max(1.0);
            }
        }
        let fitted = fit_profile(&probes);
        assert_eq!(fitted.correction_cost, 0.0);
        assert!(fitted.is_valid());
    }

    #[test]
    fn empty_or_degenerate_probes_fall_back_to_uncalibrated() {
        assert_eq!(fit_profile(&[]), HardwareProfile::uncalibrated());
        let zero = Probe {
            name: "zero".into(),
            counts: OpCounts::zero(),
            measured_ns: 0.0,
        };
        assert_eq!(fit_profile(&[zero]), HardwareProfile::uncalibrated());
    }

    #[test]
    fn profile_validity() {
        assert!(HardwareProfile::uncalibrated().is_valid());
        assert!(!HardwareProfile {
            flop_cost: f64::NAN,
            ..HardwareProfile::uncalibrated()
        }
        .is_valid());
        assert!(!HardwareProfile {
            flop_cost: -1.0,
            ..HardwareProfile::uncalibrated()
        }
        .is_valid());
        assert!(!HardwareProfile {
            flop_cost: 0.0,
            traffic_cost: 0.0,
            correction_cost: 0.0,
            assembly_cost: 0.0,
            dispatch_cost: 0.0,
        }
        .is_valid());
        // Dispatch-cost 0 with other costs positive stays valid (the
        // uncalibrated fallback has no intercept).
        assert!(HardwareProfile {
            dispatch_cost: 0.0,
            ..HardwareProfile::uncalibrated()
        }
        .is_valid());
    }

    #[test]
    fn save_load_roundtrip_and_fallbacks() {
        let dir = std::env::temp_dir().join("amalur-cost-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("profile-{}.json", std::process::id()));
        let report = CalibrationReport {
            profile: HardwareProfile {
                flop_cost: 0.25,
                traffic_cost: 3.5,
                correction_cost: 1.25,
                assembly_cost: 6.0,
                dispatch_cost: 2.2e4,
            },
            probes: vec![],
            rms_rel_err: 0.05,
            max_rel_err: 0.11,
        };
        report.save(&path).unwrap();
        let loaded = HardwareProfile::load(&path).expect("round-trips");
        assert_eq!(loaded, report.profile);
        // Corrupted file → None.
        std::fs::write(&path, "{not json").unwrap();
        assert!(HardwareProfile::load(&path).is_none());
        // Wrong schema → None. A stale v1 profile (no dispatch_cost)
        // also fails here, forcing recalibration with the intercept.
        std::fs::write(
            &path,
            r#"{"schema":"amalur-cost-profile/v1","flop_cost":1.0,"traffic_cost":1.0,
               "correction_cost":1.0,"assembly_cost":1.0,
               "probe_count":0,"rms_rel_err":0.0,"max_rel_err":0.0}"#,
        )
        .unwrap();
        assert!(HardwareProfile::load(&path).is_none());
        // Missing file → None.
        std::fs::remove_file(&path).unwrap();
        assert!(HardwareProfile::load(&path).is_none());
    }

    #[test]
    fn load_or_calibrate_prefers_saved_profile() {
        let dir = std::env::temp_dir().join("amalur-cost-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("loc-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let saved = CalibrationReport {
            profile: HardwareProfile {
                flop_cost: 0.5,
                traffic_cost: 5.0,
                correction_cost: 2.5,
                assembly_cost: 8.0,
                dispatch_cost: 1.0e4,
            },
            probes: vec![],
            rms_rel_err: 0.0,
            max_rel_err: 0.0,
        };
        saved.save(&path).unwrap();
        let (profile, source) = load_or_calibrate(&path, &CalibrationConfig::quick());
        assert_eq!(source, ProfileSource::Loaded);
        assert_eq!(profile, saved.profile);
        std::fs::remove_file(&path).unwrap();
    }
}
