//! Machine-readable kernel performance snapshot.
//!
//! Writes `BENCH_kernels.json` (in the current directory — run from the
//! workspace root) with median ns/op for the kernels every experiment
//! in the reproduction bottoms out in: dense 512³ products (the packed
//! kernel's `Aᵀ·B` vs. a naive triple loop, and the column-stable
//! panels' `A·B`), Gram, the table × model products of the training
//! loops (`A·B` / `Aᵀ·B` on a 50 000 × 60 table against 4, 8 and 9
//! columns — `A·B` on the panels throughout, `Aᵀ·B` thin, widest thin,
//! narrowest packed), one least-squares and
//! one logistic GD epoch on that table as two products and as the fused
//! block pass, one K-means update (`k = 8`) as the one-hot product and as
//! class sums, the predict path's LMM on the serving shape
//! (20 000 × 43, at 1, 16 and 32 columns) and the panels' `A·B` on the
//! 50 000 × 60 table at 16 columns, the narrow-source
//! products (`A·v` and `Aᵀ·r` on 50 000 × 2, 4 and 8, the gram of
//! 50 000 × 4 and its products with 4 and 8 columns, and `Tᵀ·r` on the
//! benchmark's 50 000 × 60 train star) —
//! all of these also as
//! ratios to the `n = 9` packed `Aᵀ·B` of the same run
//! (`per_canary_transpose_matmul_50000x60x9`) — a linear model's
//! residual + gradient over
//! a 20 000 × 32 silo as two products and as the fused one-pass kernel
//! (same operands), the LMM rewrite across strategies (on
//! the footnote-3 table and on one with shared, redundant columns), the
//! factorized Gram beside the dense Gram of the same materialized table,
//! one linear-regression GD epoch over the factorized footnote-3 table,
//! plus the steady-state allocation count of the workspace-backed
//! training loop. Also re-fits the cost model's `HardwareProfile`
//! (written to `COST_PROFILE.json` and echoed into the snapshot) so the
//! factorize-vs-materialize crossover tracks every kernel change. The
//! kernel-layer dispatch counters and calibration-probe histograms are
//! embedded as an `amalur-obs/v1` registry dump under `"metrics"`. Run
//! with `--release`; the perf trajectory is tracked across PRs by
//! committing the refreshed JSON.

use amalur_bench::footnote3_table;
use amalur_cost::{calibrate, CalibrationConfig, COST_PROFILE_FILE};
use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::{FactorizedTable, Strategy};
use amalur_matrix::{kernel_blocking, kernel_threads, DenseMatrix, Workspace};
use amalur_ml::{LinRegConfig, LinearRegression};
use amalur_obs::MetricsRegistry;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median ns/op over `reps` timed runs of `f` (after one warm-up run).
fn measure<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Naive triple-loop reference GEMM (the baseline the packed kernel is
/// required to beat by ≥ 2× on a 512³ `Aᵀ·B`).
fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for l in 0..k {
                s += a.get(i, l) * b.get(l, j);
            }
            out.set(i, j, s);
        }
    }
    out
}

/// `LinearRegression`'s link over one block: subtract the labels, then
/// fold the squared residuals.
fn least_squares_link(y: &[f64], sq: &mut f64, first: usize, block: &mut [f64]) {
    for (r, &yl) in block.iter_mut().zip(&y[first..]) {
        *r -= yl;
    }
    for &r in block.iter() {
        *sq += r * r;
    }
}

/// `LogisticRegression`'s link over one block: sigmoid, fold the
/// log-likelihood of the clamped probabilities, subtract the labels.
fn logistic_link(y: &[f64], log_lik: &mut f64, first: usize, block: &mut [f64]) {
    let ys = &y[first..first + block.len()];
    for z in block.iter_mut() {
        *z = 1.0 / (1.0 + (-*z).exp());
    }
    for (&yl, &p) in ys.iter().zip(block.iter()) {
        let p = p.clamp(1e-12, 1.0 - 1e-12);
        *log_lik += if yl == 1.0 { p.ln() } else { (1.0 - p).ln() };
    }
    for (r, &yl) in block.iter_mut().zip(ys) {
        *r -= yl;
    }
}

/// One GD epoch over `table` as `(two products, fused pass)` ns: the
/// link once over the whole vector between `matmul_into` and
/// `transpose_matmul_into`, against `gradient_pass_blocks_into`.
fn epoch_pair(
    table: &DenseMatrix,
    theta: &DenseMatrix,
    link: &mut dyn FnMut(usize, &mut [f64]),
) -> (f64, f64) {
    let mut resid = DenseMatrix::zeros(table.rows(), 1);
    let mut grad = DenseMatrix::zeros(table.cols(), 1);
    let two_products = measure(15, || {
        table.matmul_into(theta, &mut resid).expect("shapes");
        link(0, resid.as_mut_slice());
        table
            .transpose_matmul_into(&resid, &mut grad)
            .expect("shapes");
    });
    let fused = measure(15, || {
        table
            .gradient_pass_blocks_into(theta, &mut *link, &mut resid, &mut grad)
            .expect("shapes");
    });
    (two_products, fused)
}

fn json_entry(out: &mut String, name: &str, ns: f64) {
    out.push_str(&format!("    \"{name}\": {:.1},\n", ns));
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("warning: perf_snapshot built without --release; numbers are meaningless");
    }
    // Mount the kernel-layer statics up front so every dispatch below
    // lands in the snapshot embedded at the end.
    let registry = MetricsRegistry::new();
    amalur_matrix::mount_metrics(&registry);
    amalur_factorize::mount_metrics(&registry);
    amalur_cost::mount_metrics(&registry);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBE7C);

    // --- dense kernels at 512×512×512 -----------------------------------
    // The packed kernel runs `Aᵀ·B` (and `A·Bᵀ`), so it is timed — and
    // gated against the naive loop on the same product — through
    // `transpose_matmul`; the panels' `A·B` of the same operands is its
    // own case.
    let size = 512;
    let a = DenseMatrix::random_uniform(size, size, -1.0, 1.0, &mut rng);
    let b = DenseMatrix::random_uniform(size, size, -1.0, 1.0, &mut rng);
    let at = a.transpose();
    let matmul_packed_ns = measure(5, || a.transpose_matmul(&b).expect("square shapes"));
    let matmul_naive_ns = measure(3, || matmul_naive(&at, &b));
    let matmul_panels_ns = measure(5, || a.matmul(&b).expect("square shapes"));
    let gram_ns = measure(5, || a.gram());
    let speedup = matmul_naive_ns / matmul_packed_ns;
    let gflops = 2.0 * (size as f64).powi(3) / matmul_packed_ns;
    println!(
        "{size}³ Aᵀ·B: packed {:.2} ms ({gflops:.2} GFLOP/s), naive {:.2} ms — {speedup:.1}×; \
         A·B on the panels {:.2} ms",
        matmul_packed_ns / 1e6,
        matmul_naive_ns / 1e6,
        matmul_panels_ns / 1e6,
    );

    // --- table × model: narrow right operands on a 50 000 × 60 table ------
    // What every training loop multiplies by: 4 columns (GNMF rank), 8
    // (K-means) and 9. `A·B` runs the panels at every width; `Aᵀ·B` runs
    // thin at 4 and 8 and packed at 9, so the selection constant is on
    // record from both sides.
    let table = DenseMatrix::random_uniform(50_000, 60, 0.0, 1.0, &mut rng);
    let table_ns: Vec<(usize, f64, f64)> = [4usize, 8, 9]
        .into_iter()
        .map(|n| {
            let model = DenseMatrix::random_uniform(60, n, 0.0, 1.0, &mut rng);
            let mut scores = DenseMatrix::zeros(50_000, n);
            let ab = measure(15, || {
                table.matmul_into(&model, &mut scores).expect("shapes")
            });
            let mut sums = DenseMatrix::zeros(60, n);
            let atb = measure(15, || {
                table
                    .transpose_matmul_into(&scores, &mut sums)
                    .expect("shapes")
            });
            println!(
                "50000×60 table × {n} columns: A·B {:.2} ms, Aᵀ·B {:.2} ms",
                ab / 1e6,
                atb / 1e6
            );
            (n, ab, atb)
        })
        .collect();

    // --- one GD epoch / one Lloyd update on the same table --------------------
    // What the trainers run against what they replaced, on the same
    // operands (outputs bit-identical): the two products with the link
    // between them against the fused block pass, and the one-hot product
    // against the class sums. Each is also reported as a ratio to the
    // n = 9 packed `Aᵀ·B` timed above in this run — the box's noise
    // gauge, so a loud hour shows in the ratio's denominator.
    let canary_ns = table_ns
        .iter()
        .find(|&&(n, _, _)| n == 9)
        .map_or(f64::NAN, |&(_, _, atb)| atb);
    let theta = DenseMatrix::random_uniform(60, 1, -0.1, 0.1, &mut rng);
    let y_ls = DenseMatrix::random_uniform(50_000, 1, 0.0, 1.0, &mut rng);
    let y_bin = y_ls.map(|v| f64::from(v > 0.5));
    let (mut sq, mut log_lik) = (0.0, 0.0);
    let least_squares = epoch_pair(&table, &theta, &mut |first, block| {
        least_squares_link(y_ls.as_slice(), &mut sq, first, block)
    });
    let logistic = epoch_pair(&table, &theta, &mut |first, block| {
        logistic_link(y_bin.as_slice(), &mut log_lik, first, block)
    });
    let mut canary_cases: Vec<(String, f64)> = Vec::new();
    for (name, (two_products, fused)) in [("least_squares", least_squares), ("logistic", logistic)]
    {
        let case = format!("gradient_epoch_50000x60_{name}");
        canary_cases.push((format!("{case}_two_products"), two_products));
        canary_cases.push((format!("{case}_fused"), fused));
    }
    let classes: Vec<usize> = (0..50_000).map(|l| (l * 7 + l / 3) % 8).collect();
    let mut onehot = DenseMatrix::zeros(50_000, 8);
    for (l, &c) in classes.iter().enumerate() {
        onehot.set(l, c, 1.0);
    }
    let mut class_sums = DenseMatrix::zeros(60, 8);
    let mut ws = Workspace::new();
    let onehot_product_ns = measure(15, || {
        table
            .transpose_matmul_into(&onehot, &mut class_sums)
            .expect("shapes")
    });
    let class_sums_ns = measure(15, || {
        table
            .class_sums_into(&classes, &mut class_sums, &mut ws)
            .expect("shapes")
    });
    canary_cases.push((
        "class_sums_50000x60x8_onehot_product".into(),
        onehot_product_ns,
    ));
    canary_cases.push(("class_sums_50000x60x8".into(), class_sums_ns));

    // --- narrow sources: vector products and grams at depth ≤ NR ----------
    // The tall, narrow tables the factorized rewrites run on — a star's
    // base, GNMF's `W` — where a product's short side fits the register
    // file: `A·v`, `Aᵀ·r` and a gram on 50 000 rows, and the benchmark's
    // train star's `Tᵀ·r`, whose 50 000 × 4 base is an identity source.
    for k in [2usize, 4, 8] {
        let narrow = DenseMatrix::random_uniform(50_000, k, -1.0, 1.0, &mut rng);
        let v = DenseMatrix::random_uniform(k, 1, -1.0, 1.0, &mut rng);
        let r = DenseMatrix::random_uniform(50_000, 1, -1.0, 1.0, &mut rng);
        let (mut av, mut atr) = (DenseMatrix::zeros(50_000, 1), DenseMatrix::zeros(k, 1));
        let matvec_ns = measure(51, || narrow.matmul_into(&v, &mut av).expect("shapes"));
        let transpose_ns = measure(51, || {
            narrow.transpose_matmul_into(&r, &mut atr).expect("shapes")
        });
        canary_cases.push((format!("matvec_50000x{k}"), matvec_ns));
        canary_cases.push((format!("transpose_matvec_50000x{k}"), transpose_ns));
        if k == 4 {
            let mut gram = DenseMatrix::zeros(k, k);
            let gram_ns = measure(51, || narrow.gram_into(&mut gram).expect("shapes"));
            canary_cases.push((format!("gram_50000x{k}"), gram_ns));
            for n in [4usize, 8] {
                let model = DenseMatrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
                let mut scores = DenseMatrix::zeros(50_000, n);
                let ns = measure(51, || {
                    narrow.matmul_into(&model, &mut scores).expect("shapes")
                });
                canary_cases.push((format!("matmul_50000x{k}x{n}"), ns));
            }
        }
    }
    let (md, mut sources) = amalur_gen::generate(&amalur_gen::ScenarioSpec {
        topology: amalur_gen::Topology::Star { satellites: 2 },
        base_rows: 50_000,
        base_cols: 4,
        dim_rows: 500,
        dim_cols: 30,
        skew: 0.5,
        shared_cols: 2,
        sparse_mask: 0,
        density: 1.0,
        coverage: 1.0,
        seed: 1,
    })
    .expect("valid spec");
    for d in &mut sources {
        d.map_inplace(f64::abs);
    }
    let train_star = FactorizedTable::new(md, sources).expect("consistent metadata");
    let (star_rows, star_cols) = train_star.target_shape();
    let r = DenseMatrix::random_uniform(star_rows, 1, -1.0, 1.0, &mut rng);
    let mut star_grad = DenseMatrix::zeros(star_cols, 1);
    let star_t_ns = measure(51, || {
        train_star
            .lmm_transpose_into(&r, &mut star_grad, &mut ws)
            .expect("shapes")
    });
    canary_cases.push((
        format!("lmm_transpose_train_star_{star_rows}x{star_cols}_x1"),
        star_t_ns,
    ));

    // --- the predict path: column-stable products ---------------------------
    // What a coalesced serving batch runs: the factorized LMM on the
    // benchmark's serve shape (20 000 × 3 base, 4 000 × 40 lookup under
    // fan-out) at one column, a 16-request burst and a full 32-column
    // batch, and the panels' `A·B` on the training table.
    let (md, data) = generate_two_source(&TwoSourceSpec {
        rows_s1: 20_000,
        cols_s1: 3,
        rows_s2: 4_000,
        cols_s2: 40,
        seed: 7,
        ..TwoSourceSpec::default()
    })
    .expect("valid spec");
    let serve_table = FactorizedTable::new(md, data).expect("consistent metadata");
    let (serve_rows, serve_cols) = serve_table.target_shape();
    for n in [1usize, 16, 32] {
        let x = DenseMatrix::random_uniform(serve_cols, n, -1.0, 1.0, &mut rng);
        let mut out = DenseMatrix::zeros(serve_rows, n);
        let ns = measure(31, || {
            serve_table.lmm_into(&x, &mut out, &mut ws).expect("shapes")
        });
        canary_cases.push((format!("lmm_{serve_rows}x{serve_cols}_x{n}"), ns));
    }
    let model = DenseMatrix::random_uniform(60, 16, 0.0, 1.0, &mut rng);
    let mut scores = DenseMatrix::zeros(50_000, 16);
    let panels_ns = measure(15, || {
        table.matmul_into(&model, &mut scores).expect("shapes")
    });
    canary_cases.push(("matmul_50000x60x16".into(), panels_ns));
    for (case, ns) in &canary_cases {
        println!(
            "{case}: {:.2} ms ({:.3} of the n = 9 Aᵀ·B)",
            ns / 1e6,
            ns / canary_ns
        );
    }

    // --- residual + gradient over one FedAvg-sized silo --------------------
    // The same operands through the two vector fast paths (X read twice)
    // and through the fused pass (X read once); outputs are bit-identical.
    let silo = DenseMatrix::random_uniform(20_000, 32, -1.0, 1.0, &mut rng);
    let silo_theta = DenseMatrix::random_uniform(32, 1, -1.0, 1.0, &mut rng);
    let silo_y = DenseMatrix::random_uniform(20_000, 1, -1.0, 1.0, &mut rng);
    let mut resid = DenseMatrix::zeros(20_000, 1);
    let mut grad = DenseMatrix::zeros(32, 1);
    let gradient_two_products_ns = measure(15, || {
        silo.matmul_into(&silo_theta, &mut resid).expect("shapes");
        resid.sub_assign(&silo_y).expect("shapes");
        silo.transpose_matmul_into(&resid, &mut grad)
            .expect("shapes");
        resid.frobenius_norm_sq()
    });
    let gradient_pass_ns = measure(15, || {
        let y = silo_y.as_slice();
        let mut sq = 0.0;
        let link = |l: usize, z: f64| {
            let r = z - y[l];
            sq += r * r;
            r
        };
        silo.gradient_pass_into(&silo_theta, link, &mut resid, &mut grad)
            .expect("shapes");
        sq
    });
    println!(
        "residual + gradient 20000×32: two products {:.2} ms, fused pass {:.2} ms",
        gradient_two_products_ns / 1e6,
        gradient_pass_ns / 1e6,
    );

    // --- factorized operators (footnote-3 workload) ----------------------
    let ft = footnote3_table(20_000, true, false, 7);
    let (rows, cols) = ft.target_shape();
    let x = DenseMatrix::filled(cols, 1, 0.5);
    let lmm_compressed_ns = measure(7, || ft.lmm(&x, Strategy::Compressed).expect("shapes"));
    let lmm_sparse_ns = measure(7, || ft.lmm(&x, Strategy::Sparse).expect("shapes"));
    // Morpheus rule (1) needs disjoint sources: the inner-1:1 config.
    let ft_disjoint = footnote3_table(20_000, false, false, 7);
    let x_disjoint = DenseMatrix::filled(ft_disjoint.target_shape().1, 1, 0.5);
    let lmm_morpheus_ns = measure(7, || {
        ft_disjoint
            .lmm(&x_disjoint, Strategy::Morpheus)
            .expect("disjoint config satisfies rule (1)")
    });
    let fact_gram_ns = measure(3, || ft.gram());
    let materialized = ft.materialize();
    let mat_gram_ns = measure(3, || materialized.gram());
    // The same shapes with a 4-column base sharing two columns with the
    // dimension table: 40 000 redundant cells behind 4000 slots.
    let (md, data) = generate_two_source(&TwoSourceSpec {
        cols_s1: 4,
        shared_cols: 2,
        ..TwoSourceSpec::footnote3(20_000, true, false, 7)
    })
    .expect("valid spec");
    let ft_red = FactorizedTable::new(md, data).expect("consistent metadata");
    let x_red = DenseMatrix::filled(ft_red.target_shape().1, 1, 0.5);
    let y_red = DenseMatrix::filled(ft_red.target_shape().0, 1, 0.5);
    let lmm_red_ns = measure(7, || {
        ft_red.lmm(&x_red, Strategy::Compressed).expect("shapes")
    });
    let lmm_t_red_ns = measure(7, || {
        ft_red
            .lmm_transpose(&y_red, Strategy::Compressed)
            .expect("shapes")
    });
    println!(
        "lmm {rows}×{cols}: compressed {:.2} ms, sparse {:.2} ms, morpheus {:.2} ms",
        lmm_compressed_ns / 1e6,
        lmm_sparse_ns / 1e6,
        lmm_morpheus_ns / 1e6,
    );
    println!(
        "gram {rows}×{cols}: factorized {:.2} ms, materialized {:.2} ms; \
         redundant table: lmm {:.2} ms, lmm_transpose {:.2} ms",
        fact_gram_ns / 1e6,
        mat_gram_ns / 1e6,
        lmm_red_ns / 1e6,
        lmm_t_red_ns / 1e6,
    );

    // --- linreg GD epoch over the factorized table -----------------------
    let y = DenseMatrix::filled(rows, 1, 1.0);
    let epochs = 10;
    let mut ws = Workspace::new();
    // Warm the pool, then count steady-state allocations across a
    // second full fit (must be zero: the zero-allocation pipeline).
    let mut model = LinearRegression::new(LinRegConfig {
        epochs,
        learning_rate: 1e-4,
        ..LinRegConfig::default()
    });
    model.fit_with_workspace(&ft, &y, &mut ws).expect("trains");
    let warm_allocs = ws.fresh_allocations();
    model.fit_with_workspace(&ft, &y, &mut ws).expect("trains");
    let steady_state_allocs = ws.fresh_allocations() - warm_allocs;
    let linreg_epoch_ns = measure(5, || {
        model.fit_with_workspace(&ft, &y, &mut ws).expect("trains")
    }) / epochs as f64;
    println!(
        "linreg GD epoch ({rows}×{cols} factorized): {:.2} ms, steady-state allocs {steady_state_allocs}",
        linreg_epoch_ns / 1e6,
    );

    // --- cost-model calibration ------------------------------------------
    // Kernel speedups move the factorize-vs-materialize crossover; every
    // snapshot re-fits the hardware profile so the cost model keeps up.
    let report = calibrate(&CalibrationConfig::default());
    report
        .save(Path::new(COST_PROFILE_FILE))
        .expect("writable working directory");
    let hp = report.profile;
    println!(
        "cost profile: flop={:.4} traffic={:.4} correction={:.4} assembly={:.4} ns/unit \
         dispatch={:.0} ns/call (rms rel err {:.1}% over {} probes) -> {COST_PROFILE_FILE}",
        hp.flop_cost,
        hp.traffic_cost,
        hp.correction_cost,
        hp.assembly_cost,
        hp.dispatch_cost,
        report.rms_rel_err * 100.0,
        report.probes.len(),
    );

    // --- emit JSON --------------------------------------------------------
    let (mr, nr, mc, kc, nc) = kernel_blocking();
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"amalur-bench-kernels/v2\",\n");
    json.push_str("  \"unit\": \"ns_per_op\",\n");
    json.push_str(&format!(
        "  \"kernel\": {{ \"MR\": {mr}, \"NR\": {nr}, \"MC\": {mc}, \"KC\": {kc}, \"NC\": {nc}, \"threads\": {} }},\n",
        kernel_threads()
    ));
    json.push_str("  \"benchmarks\": {\n");
    json_entry(&mut json, "matmul_512_packed", matmul_packed_ns);
    json_entry(&mut json, "matmul_512_naive", matmul_naive_ns);
    json_entry(&mut json, "matmul_512_panels", matmul_panels_ns);
    json_entry(&mut json, "gram_512", gram_ns);
    for (n, ab, atb) in table_ns {
        json_entry(&mut json, &format!("matmul_50000x60x{n}"), ab);
        json_entry(&mut json, &format!("transpose_matmul_50000x60x{n}"), atb);
    }
    for (case, ns) in &canary_cases {
        json_entry(&mut json, case, *ns);
    }
    json_entry(
        &mut json,
        "gradient_two_products_20000x32",
        gradient_two_products_ns,
    );
    json_entry(&mut json, "gradient_pass_20000x32", gradient_pass_ns);
    json_entry(&mut json, "lmm_compressed", lmm_compressed_ns);
    json_entry(&mut json, "lmm_sparse", lmm_sparse_ns);
    json_entry(&mut json, "lmm_morpheus", lmm_morpheus_ns);
    json_entry(&mut json, "lmm_compressed_redundant", lmm_red_ns);
    json_entry(
        &mut json,
        "lmm_transpose_compressed_redundant",
        lmm_t_red_ns,
    );
    json_entry(&mut json, "gram_factorized", fact_gram_ns);
    json_entry(&mut json, "gram_materialized_same_table", mat_gram_ns);
    json_entry(&mut json, "linreg_gd_epoch_factorized", linreg_epoch_ns);
    json.push_str(&format!(
        "    \"matmul_512_speedup_vs_naive\": {speedup:.2}\n"
    ));
    json.push_str("  },\n");
    // The epoch, Lloyd and predict-path cases over the n = 9 packed
    // `Aᵀ·B` of the same run.
    json.push_str("  \"per_canary_transpose_matmul_50000x60x9\": {\n");
    let ratios: Vec<String> = canary_cases
        .iter()
        .map(|(case, ns)| format!("    \"{case}\": {:.4}", ns / canary_ns))
        .collect();
    json.push_str(&ratios.join(",\n"));
    json.push_str("\n  },\n");
    json.push_str(&format!(
        "  \"cost_profile\": {{ \"flop_cost\": {:.6}, \"traffic_cost\": {:.6}, \"correction_cost\": {:.6}, \"assembly_cost\": {:.6}, \"dispatch_cost\": {:.1}, \"rms_rel_err\": {:.4} }},\n",
        hp.flop_cost, hp.traffic_cost, hp.correction_cost, hp.assembly_cost, hp.dispatch_cost, report.rms_rel_err
    ));
    json.push_str(&format!(
        "  \"linreg_steady_state_fresh_allocations\": {steady_state_allocs},\n"
    ));
    json.push_str(&format!(
        "  \"metrics\": {}\n",
        registry.snapshot().to_json(2)
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("writable working directory");
    println!("wrote BENCH_kernels.json");

    assert!(
        speedup >= 2.0,
        "acceptance: packed Aᵀ·B must be ≥ 2× the naive triple loop (got {speedup:.2}×)"
    );
    assert_eq!(
        steady_state_allocs, 0,
        "acceptance: steady-state linreg epochs must not allocate"
    );
}
