//! Kernel-layer observability: `static` metrics and their mount point.
//!
//! The GEMM driver has no registry plumbing — and must not grow any,
//! since dispatch runs inside `_into` kernels where the record path has
//! to stay allocation-free. The metrics therefore live here as
//! `static`s (recording is a relaxed atomic add) and hosts that want
//! them in a dump call [`mount_metrics`] on their
//! [`amalur_obs::MetricsRegistry`].

use amalur_obs::{Counter, Gauge, MetricsRegistry};

/// `Aᵀ·B` / `A·Bᵀ` calls routed to the thin kernel (one register panel,
/// or too few flops to repay packing; nothing packed).
pub(crate) static GEMM_THIN_DISPATCHES: Counter = Counter::new();

/// `Aᵀ·B` / `A·Bᵀ` calls routed to the packed register-blocked
/// micro-kernel.
pub(crate) static GEMM_PACKED_DISPATCHES: Counter = Counter::new();

/// `A·B` calls of width `n ≥ 2`, all run by the column-stable panels.
pub(crate) static GEMM_COLSTABLE_DISPATCHES: Counter = Counter::new();

/// Fused gradient passes ([`crate::DenseMatrix::gradient_pass_into`]
/// and [`crate::DenseMatrix::gradient_pass_blocks_into`]): one per pass
/// over a matrix's data.
pub(crate) static GRADIENT_PASS_CALLS: Counter = Counter::new();

/// Rows those passes streamed.
pub(crate) static GRADIENT_PASS_ROWS: Counter = Counter::new();

/// [`crate::DenseMatrix::class_sums_into`] calls: one per pass over a
/// matrix's data.
pub(crate) static CLASS_SUMS_CALLS: Counter = Counter::new();

/// Rows those passes streamed.
pub(crate) static CLASS_SUMS_ROWS: Counter = Counter::new();

/// Largest number of `f64` elements any single [`crate::Workspace`]
/// had checked out at once, process-wide.
pub(crate) static WORKSPACE_HIGH_WATER_ELEMS: Gauge = Gauge::new();

/// Mounts the kernel-layer metrics into `reg` under the
/// `matrix.gemm.*` / `matrix.gradient_pass.*` / `matrix.class_sums.*` /
/// `matrix.workspace.*` names.
pub fn mount_metrics(reg: &MetricsRegistry) {
    reg.mount_counter("matrix.gemm.thin_dispatches", &GEMM_THIN_DISPATCHES);
    reg.mount_counter("matrix.gemm.packed_dispatches", &GEMM_PACKED_DISPATCHES);
    reg.mount_counter(
        "matrix.gemm.colstable_dispatches",
        &GEMM_COLSTABLE_DISPATCHES,
    );
    reg.mount_counter("matrix.gradient_pass.calls", &GRADIENT_PASS_CALLS);
    reg.mount_counter("matrix.gradient_pass.rows", &GRADIENT_PASS_ROWS);
    reg.mount_counter("matrix.class_sums.calls", &CLASS_SUMS_CALLS);
    reg.mount_counter("matrix.class_sums.rows", &CLASS_SUMS_ROWS);
    reg.mount_gauge(
        "matrix.workspace.high_water_elems",
        &WORKSPACE_HIGH_WATER_ELEMS,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMatrix;

    #[test]
    fn gemm_dispatch_is_counted() {
        let reg = MetricsRegistry::new();
        mount_metrics(&reg);
        let before = reg.snapshot();
        let small = DenseMatrix::filled(4, 4, 1.0);
        small.matmul(&small).expect("square matmul");
        let after_panels = reg.snapshot();
        let small_wide = DenseMatrix::filled(4, 12, 1.0);
        small.transpose_matmul(&small_wide).expect("4×4ᵀ · 4×12");
        let after_thin = reg.snapshot();
        let big = DenseMatrix::filled(192, 192, 1.0);
        big.transpose_matmul(&big).expect("square transpose_matmul");
        let after = reg.snapshot();
        // Other tests multiply concurrently, hence `>=`.
        let grew =
            |from: &amalur_obs::MetricsSnapshot, to: &amalur_obs::MetricsSnapshot, name: &str| {
                to.counter(name).unwrap_or(0) - from.counter(name).unwrap_or(0) >= 1
            };
        assert!(
            grew(&before, &after_panels, "matrix.gemm.colstable_dispatches"),
            "A·B at n = 4 routes to the column-stable panels"
        );
        assert!(
            grew(&after_panels, &after_thin, "matrix.gemm.thin_dispatches"),
            "Aᵀ·B at n = 12 under the FLOP threshold routes to the thin kernel"
        );
        assert!(
            grew(&after_thin, &after, "matrix.gemm.packed_dispatches"),
            "Aᵀ·B at 192³ routes to the packed kernel"
        );
    }

    #[test]
    fn workspace_high_water_reaches_the_gauge() {
        let mut ws = crate::Workspace::new();
        let m = ws.take_matrix(32, 32);
        ws.give_matrix(m);
        assert!(ws.high_water_elems() >= 32 * 32);
        assert!(WORKSPACE_HIGH_WATER_ELEMS.get() >= 32 * 32);
    }
}
