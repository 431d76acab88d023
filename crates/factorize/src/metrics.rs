//! Rewrite-layer observability: `static` dispatch counters.
//!
//! Same pattern as `amalur_matrix::metrics`: the rewrite operators run
//! inside allocation-free hot loops and carry no registry plumbing, so
//! the counters are `static`s (a record is one relaxed atomic add) and
//! hosts mount them with [`mount_metrics`].

use crate::Strategy;
use amalur_obs::{Counter, MetricsRegistry};

/// `lmm` / `lmm_into` invocations (the forward operator `T·X`, training
/// and serving alike).
pub(crate) static LMM_CALLS: Counter = Counter::new();

/// `lmm_transpose` / `lmm_transpose_into` invocations (the gradient
/// operator `Tᵀ·X`; `rmm` also lands here via its rewrite).
pub(crate) static LMM_TRANSPOSE_CALLS: Counter = Counter::new();

/// Target rows moved through a source's stacked-row selection `eff` by
/// the compressed operators: gathered by `T·X`, scattered by `Tᵀ·X` —
/// `Σₖ` matched rows per call.
pub(crate) static LMM_GATHER_ROWS: Counter = Counter::new();

/// Redundancy-correction cells the compressed `T·X` / `Tᵀ·X` executed:
/// `n · Σₖ Σ_g slots_g·|Z_g|` per call, never more than `n` times the
/// table's redundant cells.
pub(crate) static LMM_CORRECTION_CELLS: Counter = Counter::new();

/// Target rows scattered from one source's stacked rows into another's
/// by the cross terms of the factorized Gram matrix.
pub(crate) static GRAM_SCATTER_ROWS: Counter = Counter::new();

/// Operators executed with [`Strategy::Compressed`].
pub(crate) static STRATEGY_COMPRESSED: Counter = Counter::new();

/// Operators executed with [`Strategy::Sparse`].
pub(crate) static STRATEGY_SPARSE: Counter = Counter::new();

/// Operators executed with [`Strategy::Morpheus`].
pub(crate) static STRATEGY_MORPHEUS: Counter = Counter::new();

/// Bumps the per-strategy dispatch counter for one operator call.
pub(crate) fn record_strategy(strategy: Strategy) {
    match strategy {
        Strategy::Compressed => STRATEGY_COMPRESSED.inc(),
        Strategy::Sparse => STRATEGY_SPARSE.inc(),
        Strategy::Morpheus => STRATEGY_MORPHEUS.inc(),
    }
}

/// Mounts the rewrite-layer counters into `reg` under the
/// `factorize.*` names.
pub fn mount_metrics(reg: &MetricsRegistry) {
    reg.mount_counter("factorize.lmm.calls", &LMM_CALLS);
    reg.mount_counter("factorize.lmm_transpose.calls", &LMM_TRANSPOSE_CALLS);
    reg.mount_counter("factorize.lmm.gather_rows", &LMM_GATHER_ROWS);
    reg.mount_counter("factorize.lmm.correction_cells", &LMM_CORRECTION_CELLS);
    reg.mount_counter("factorize.gram.scatter_rows", &GRAM_SCATTER_ROWS);
    reg.mount_counter("factorize.strategy.compressed", &STRATEGY_COMPRESSED);
    reg.mount_counter("factorize.strategy.sparse", &STRATEGY_SPARSE);
    reg.mount_counter("factorize.strategy.morpheus", &STRATEGY_MORPHEUS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mount_exposes_all_counters() {
        let reg = MetricsRegistry::new();
        mount_metrics(&reg);
        let before = reg
            .snapshot()
            .counter("factorize.strategy.sparse")
            .unwrap_or(0);
        record_strategy(Strategy::Sparse);
        let after = reg
            .snapshot()
            .counter("factorize.strategy.sparse")
            .unwrap_or(0);
        assert_eq!(after - before, 1);
        assert!(reg.snapshot().counter("factorize.lmm.calls").is_some());
    }
}
