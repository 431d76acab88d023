//! Kernel-layer observability: `static` metrics and their mount point.
//!
//! The GEMM driver has no registry plumbing — and must not grow any,
//! since dispatch runs inside `_into` kernels where the record path has
//! to stay allocation-free. The metrics therefore live here as
//! `static`s (recording is a relaxed atomic add) and hosts that want
//! them in a dump call [`mount_metrics`] on their
//! [`amalur_obs::MetricsRegistry`].

use amalur_obs::{Counter, Gauge, MetricsRegistry};

/// GEMM calls routed to the packed register-blocked micro-kernel.
pub(crate) static GEMM_PACKED_DISPATCHES: Counter = Counter::new();

/// GEMM calls routed to the blocked-axpy fallback (small problems).
pub(crate) static GEMM_FALLBACK_DISPATCHES: Counter = Counter::new();

/// Column-stable GEMM calls (the serving batching contract path).
pub(crate) static GEMM_COLSTABLE_DISPATCHES: Counter = Counter::new();

/// [`crate::DenseMatrix::gradient_pass_into`] calls: one per pass over
/// a matrix's data.
pub(crate) static GRADIENT_PASS_CALLS: Counter = Counter::new();

/// Rows those passes streamed.
pub(crate) static GRADIENT_PASS_ROWS: Counter = Counter::new();

/// Largest number of `f64` elements any single [`crate::Workspace`]
/// had checked out at once, process-wide.
pub(crate) static WORKSPACE_HIGH_WATER_ELEMS: Gauge = Gauge::new();

/// Mounts the kernel-layer metrics into `reg` under the
/// `matrix.gemm.*` / `matrix.gradient_pass.*` / `matrix.workspace.*`
/// names.
pub fn mount_metrics(reg: &MetricsRegistry) {
    reg.mount_counter("matrix.gemm.packed_dispatches", &GEMM_PACKED_DISPATCHES);
    reg.mount_counter("matrix.gemm.fallback_dispatches", &GEMM_FALLBACK_DISPATCHES);
    reg.mount_counter(
        "matrix.gemm.colstable_dispatches",
        &GEMM_COLSTABLE_DISPATCHES,
    );
    reg.mount_counter("matrix.gradient_pass.calls", &GRADIENT_PASS_CALLS);
    reg.mount_counter("matrix.gradient_pass.rows", &GRADIENT_PASS_ROWS);
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
        let big = DenseMatrix::filled(192, 192, 1.0);
        big.matmul(&big).expect("square matmul");
        let after = reg.snapshot();
        let packed = after.counter("matrix.gemm.packed_dispatches").unwrap_or(0)
            - before.counter("matrix.gemm.packed_dispatches").unwrap_or(0);
        let fallback = after
            .counter("matrix.gemm.fallback_dispatches")
            .unwrap_or(0)
            - before
                .counter("matrix.gemm.fallback_dispatches")
                .unwrap_or(0);
        assert!(packed >= 1, "192³ routes to the packed kernel");
        assert!(fallback >= 1, "4³ routes to the axpy fallback");
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
