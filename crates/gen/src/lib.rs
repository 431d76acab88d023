//! Property-based DI scenario generation and differential testing.
//!
//! The paper evaluates Amalur on a fixed, hand-wired ladder of
//! two-source scenarios (Table III / footnote 3). This crate replaces
//! that ladder as the project's correctness backbone: it *generates*
//! data-integration landscapes — star and snowflake schemas, multi-hop
//! lookup chains, M:N link sets, skewed fan-outs, shared-column
//! redundancy grids, mixed sparse/dense sources — and checks, for every
//! one of them, that factorized learning and materialized learning
//! agree (§IV: "factorized learning does not affect model training
//! accuracy").
//!
//! The pipeline, module by module:
//!
//! * [`spec`] — the scenario grammar: a small serializable
//!   [`ScenarioSpec`] (topology + continuous knobs) that fully
//!   determines a scenario together with its seed.
//! * [`sample`] — seed-deterministic random walks over the grammar, so
//!   sweeps and CI smokes can draw "fresh" scenarios reproducibly.
//! * [`generate`](mod@generate) — turns a spec into a validated
//!   [`DiMetadata`](amalur_integration::DiMetadata) plus one source
//!   matrix per table, the exact contract of
//!   `amalur_data::generate_two_source`.
//! * [`diff`] — the differential harness: train linreg / logreg /
//!   k-means / GNMF both factorized and materialized, demand agreement
//!   within a rounding-model tolerance.
//! * [`shrink`](mod@shrink) — greedy spec-level shrinking to a minimal failing
//!   scenario (the vendored proptest shim has no shrinking; specs are a
//!   far better shrink domain than byte streams anyway).
//! * [`corpus`] — the regression corpus: previously shrunk failing
//!   specs, checked into `corpus/regressions.json` and replayed by
//!   every sweep and by CI.
//!
//! The `scenario_sweep` bin in `amalur-bench` drives all of this across
//! ≥ 100 scenarios and additionally scores the cost model's
//! predicted-vs-oracle factorization decisions per topology/skew
//! bucket, writing `BENCH_coverage.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod generate;
pub mod sample;
pub mod shrink;
pub mod spec;

pub use corpus::{Corpus, CorpusEntry};
pub use diff::{
    check_scenario, equivalence_tolerance, planted_labels, Divergence, Workload, ALL_WORKLOADS,
};
pub use generate::generate;
pub use sample::{sample_spec, sample_specs};
pub use shrink::shrink;
pub use spec::{ScenarioSpec, Topology};

/// Checks one scenario and, on divergence, shrinks it to a minimal
/// failing spec — the harness entry point tests and sweeps use.
///
/// Returns `Ok(())` when every workload agrees across both paths.
/// On divergence, returns the *shrunk* spec plus the divergences
/// observed at that minimum (re-checked, so the report matches the
/// minimal scenario, not the original). The minimal spec's JSON is
/// embedded in the message so it can be pasted straight into
/// `corpus/regressions.json`.
///
/// # Errors
/// `Err(message)` for both infrastructure failures (generation or
/// training failed outright) and genuine equivalence violations; the
/// message distinguishes the two.
pub fn check_and_shrink(spec: &ScenarioSpec, workloads: &[Workload]) -> Result<(), String> {
    let divergences = check_scenario(spec, workloads)?;
    if divergences.is_empty() {
        return Ok(());
    }
    // Shrink against "still diverges" (infrastructure errors on a
    // candidate count as not failing — we only descend along specs
    // exhibiting the original kind of failure).
    let minimal = shrink(
        spec,
        &mut |candidate| matches!(check_scenario(candidate, workloads), Ok(d) if !d.is_empty()),
    );
    let at_min = check_scenario(&minimal, workloads).unwrap_or_default();
    let report = if at_min.is_empty() {
        &divergences
    } else {
        &at_min
    };
    let details: Vec<String> = report.iter().map(ToString::to_string).collect();
    Err(format!(
        "factorized != materialized\n  original spec: {}\n  minimal spec:  {}\n  {}",
        serde_json::to_string(spec).unwrap_or_default(),
        serde_json::to_string(&minimal).unwrap_or_default(),
        details.join("\n  ")
    ))
}
