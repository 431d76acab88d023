//! Cost estimation: to factorize or to materialize (§IV-B).
//!
//! Given a silo configuration and a training workload, should the system
//! push computation down to the sources (factorize) or join first and
//! train on the target table (materialize)? This crate provides
//!
//! * [`CostFeatures`] — everything a cost model may look at, extracted
//!   from the DI metadata: shapes, match counts, redundancy counts, and
//!   the classic tuple/feature ratios;
//! * [`MorpheusHeuristic`] — the state-of-the-art baseline \[27\]: decide
//!   from tuple ratio and feature ratio alone (table shapes, no DI
//!   metadata). It covers "Area I" of Figure 5 and misfires when the join
//!   does not actually produce target-side redundancy;
//! * [`AmalurCostModel`] — an analytic FLOP/traffic model parameterized
//!   by the DI metadata (actual match counts, fan-out, redundant cells),
//!   covering the harder "Area III" cases. Its per-operation prices come
//!   from a [`HardwareProfile`];
//! * [`calibrate`](mod@calibrate) — the measurement-calibrated profile: micro-probes
//!   over real factorized tables, least-squares fit, and
//!   `COST_PROFILE.json` persistence, so the crossover re-fits itself
//!   whenever the kernels get faster instead of rotting with hardcoded
//!   constants;
//! * [`oracle`] — ground truth by measurement: run both strategies and
//!   time them (min over repetitions after a warm-up). The Table III
//!   benchmark scores each model's decisions against the oracle,
//!   excluding near-tie scenarios that are timing noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
mod features;
pub mod metrics;
mod model;
pub mod oracle;

pub use calibrate::{
    calibrate, load_or_calibrate, CalibrationConfig, CalibrationReport, HardwareProfile, Probe,
    ProfileSource, COST_PROFILE_FILE,
};
pub use features::{CostFeatures, SourceFeatures};
pub use metrics::mount_metrics;
pub use model::{AmalurCostModel, CostModel, Decision, MorpheusHeuristic, TrainingWorkload};
pub use oracle::{measure_strategies, measure_strategies_with_reps, Measurement};
