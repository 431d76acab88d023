//! The fused gradient pass's work counters, pinned exactly.
//!
//! One test in its own binary: the counters are process-wide statics, and
//! a second test running the kernel beside this one would move them.

use amalur_matrix::{mount_metrics, DenseMatrix};
use amalur_obs::MetricsRegistry;

#[test]
fn gradient_pass_counts_one_call_and_its_rows() {
    let reg = MetricsRegistry::new();
    mount_metrics(&reg);
    let read = || {
        let snap = reg.snapshot();
        (
            snap.counter("matrix.gradient_pass.calls").unwrap(),
            snap.counter("matrix.gradient_pass.rows").unwrap(),
        )
    };
    assert_eq!(read(), (0, 0));

    let theta = DenseMatrix::filled(3, 1, 0.5);
    let mut grad = DenseMatrix::zeros(3, 1);
    let mut pass = |rows: usize| {
        let x = DenseMatrix::filled(rows, 3, 1.0);
        let mut resid = DenseMatrix::zeros(rows, 1);
        x.gradient_pass_into(&theta, |_, z| z, &mut resid, &mut grad)
            .unwrap();
    };
    pass(7);
    assert_eq!(read(), (1, 7));
    pass(0);
    assert_eq!(read(), (2, 7));
    pass(40);
    assert_eq!(read(), (3, 47));

    // A rejected call is not a pass.
    let x = DenseMatrix::filled(7, 3, 1.0);
    let mut short = DenseMatrix::zeros(6, 1);
    assert!(x
        .gradient_pass_into(&theta, |_, z| z, &mut short, &mut grad)
        .is_err());
    assert_eq!(read(), (3, 47));
}
