//! Integration-layer observability: `static` work counters.
//!
//! Same pattern as `amalur_matrix::metrics` and
//! `amalur_factorize::metrics`: the matchers carry no registry plumbing,
//! the counters are `static`s and hosts mount them with
//! [`mount_metrics`]. Counters only — this crate is under the audit's
//! `[determinism]` paths, so no clocks — and each matcher call adds its
//! locally accumulated totals once, not per pair.

use amalur_obs::{Counter, MetricsRegistry};

/// In-block row pairs the fuzzy phase of `match_rows` had to decide.
pub(crate) static ER_BLOCK_PAIRS: Counter = Counter::new();

/// Of those, pairs skipped on the count bound without a scan.
pub(crate) static ER_BOUND_PRUNED: Counter = Counter::new();

/// Of those, pairs that ran the Jaro–Winkler scan
/// (`block_pairs = bound_pruned + scored`).
pub(crate) static ER_SCORED: Counter = Counter::new();

/// Scanned pairs whose score reached the threshold — the candidates
/// handed to the 1:1 resolution.
pub(crate) static ER_ACCEPTED: Counter = Counter::new();

/// Per-column distinct-value profiles built for `match_schemas`.
pub(crate) static SCHEMA_COLUMN_PROFILES: Counter = Counter::new();

/// Type-compatible column pairs `match_schemas` scored.
pub(crate) static SCHEMA_PAIRS_SCORED: Counter = Counter::new();

/// Mounts the integration-layer counters into `reg` under the
/// `integration.*` names.
pub fn mount_metrics(reg: &MetricsRegistry) {
    reg.mount_counter("integration.er.block_pairs", &ER_BLOCK_PAIRS);
    reg.mount_counter("integration.er.bound_pruned", &ER_BOUND_PRUNED);
    reg.mount_counter("integration.er.scored", &ER_SCORED);
    reg.mount_counter("integration.er.accepted", &ER_ACCEPTED);
    reg.mount_counter(
        "integration.schema.column_profiles",
        &SCHEMA_COLUMN_PROFILES,
    );
    reg.mount_counter("integration.schema.pairs_scored", &SCHEMA_PAIRS_SCORED);
}
