//! The fused gradient pass's and the class sums' work counters, pinned
//! exactly.
//!
//! Its own binary: the counters are process-wide statics, and a test
//! running either kernel beside these would move them. The two tests
//! read disjoint counters, so they may run side by side.

use amalur_matrix::{mount_metrics, DenseMatrix, Workspace};
use amalur_obs::MetricsRegistry;

fn counters(reg: &MetricsRegistry, family: &str) -> (u64, u64) {
    let snap = reg.snapshot();
    (
        snap.counter(&format!("matrix.{family}.calls")).unwrap(),
        snap.counter(&format!("matrix.{family}.rows")).unwrap(),
    )
}

#[test]
fn gradient_pass_counts_one_call_and_its_rows() {
    let reg = MetricsRegistry::new();
    mount_metrics(&reg);
    let read = || counters(&reg, "gradient_pass");
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

    // The block entry is the same pass: one call however many blocks.
    let x = DenseMatrix::filled(21, 3, 1.0);
    let mut resid = DenseMatrix::zeros(21, 1);
    x.gradient_pass_blocks_into(&theta, |_, _| {}, &mut resid, &mut grad)
        .unwrap();
    assert_eq!(read(), (4, 68));

    // A rejected call is not a pass.
    let x = DenseMatrix::filled(7, 3, 1.0);
    let mut short = DenseMatrix::zeros(6, 1);
    assert!(x
        .gradient_pass_into(&theta, |_, z| z, &mut short, &mut grad)
        .is_err());
    assert!(x
        .gradient_pass_blocks_into(&theta, |_, _| {}, &mut short, &mut grad)
        .is_err());
    assert_eq!(read(), (4, 68));
}

#[test]
fn class_sums_count_one_call_and_its_rows() {
    let reg = MetricsRegistry::new();
    mount_metrics(&reg);
    let read = || counters(&reg, "class_sums");
    assert_eq!(read(), (0, 0));

    let mut ws = Workspace::new();
    let mut out = DenseMatrix::zeros(3, 2);
    let x = DenseMatrix::filled(5, 3, 1.0);
    x.class_sums_into(&[0, 1, 0, 1, 1], &mut out, &mut ws)
        .unwrap();
    assert_eq!(read(), (1, 5));
    DenseMatrix::zeros(0, 3)
        .class_sums_into(&[], &mut out, &mut ws)
        .unwrap();
    assert_eq!(read(), (2, 5));

    // Rejected calls — wrong length, a class ≥ k — are not passes.
    assert!(x.class_sums_into(&[0, 1], &mut out, &mut ws).is_err());
    assert!(x
        .class_sums_into(&[0, 1, 2, 0, 0], &mut out, &mut ws)
        .is_err());
    assert_eq!(read(), (2, 5));
}
