//! Criterion micro-benchmark: the remaining factorized operators
//! (transpose-LMM, Gram, column sums, materialization) and the
//! compressed-vs-expanded metadata ablation.

use amalur_bench::footnote3_table;
use amalur_factorize::Strategy;
use amalur_matrix::{CsrMatrix, DenseMatrix};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_operators(c: &mut Criterion) {
    let ft = footnote3_table(10_000, true, false, 11);
    let (rows, cols) = ft.target_shape();
    let t = ft.materialize();
    let y = DenseMatrix::filled(rows, 1, 0.25);

    let mut group = c.benchmark_group("ops");
    group.sample_size(10);
    group.bench_function("transpose_lmm/factorized", |b| {
        b.iter(|| black_box(ft.lmm_transpose(&y, Strategy::Compressed).expect("shapes")))
    });
    group.bench_function("transpose_lmm/materialized", |b| {
        b.iter(|| black_box(t.transpose_matmul(&y).expect("shapes")))
    });
    group.bench_function("gram/factorized", |b| b.iter(|| black_box(ft.gram())));
    group.bench_function("gram/materialized", |b| b.iter(|| black_box(t.gram())));
    group.bench_function("col_sums/factorized", |b| {
        b.iter(|| black_box(ft.col_sums()))
    });
    group.bench_function("col_sums/materialized", |b| {
        b.iter(|| black_box(t.col_sums()))
    });
    group.bench_function("materialize", |b| b.iter(|| black_box(ft.materialize())));
    let _ = cols;
    group.finish();
}

/// Applying the indicator matrix as a compressed gather versus as an
/// expanded CSR multiplication.
fn bench_metadata_application(c: &mut Criterion) {
    let ft = footnote3_table(10_000, true, false, 13);
    let s2 = &ft.metadata().sources[1];
    let d2 = &ft.source_data()[1];
    // The local result Dₖ (rSk × cSk) lifted to target rows.
    let ci = s2.indicator.compressed().to_vec();
    let i2_csr: CsrMatrix = s2.indicator.to_csr();

    let mut group = c.benchmark_group("metadata_application");
    group.sample_size(10);
    group.bench_function("indicator/compressed-gather", |b| {
        b.iter(|| black_box(d2.gather_rows(&ci).expect("validated")))
    });
    group.bench_function("indicator/expanded-csr", |b| {
        b.iter(|| black_box(i2_csr.matmul_dense(d2).expect("validated")))
    });
    group.finish();
}

criterion_group!(benches, bench_operators, bench_metadata_application);
criterion_main!(benches);
