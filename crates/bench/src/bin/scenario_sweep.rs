//! **Scenario sweep**: the generated-scenario correctness and
//! cost-model-coverage gate.
//!
//! Replaces the fixed footnote-3 ladder as the project's correctness
//! backbone: instead of checking a handful of hand-wired two-source
//! points, this bin
//!
//! 1. replays the regression corpus (`crates/gen/corpus/regressions.json`
//!    — previously shrunk failing scenarios) through the differential
//!    harness;
//! 2. sweeps ≥ 100 freshly sampled scenarios — star, snowflake,
//!    multi-hop chain and M:N topologies; skewed fan-outs; shared-column
//!    redundancy grids; mixed sparse/dense sources — and demands
//!    factorized == materialized on every ML workload (violations are
//!    shrunk to a minimal spec and reported as corpus-ready JSON);
//! 3. scores the cost model on the large scenarios: predicted
//!    factorize-vs-materialize decision against the measured oracle,
//!    bucketed by `topology/skew`, near-ties excluded as timing noise —
//!    showing *where* in the scenario space the model breaks down.
//!
//! Writes `BENCH_coverage.json`. Exits non-zero on any equivalence
//! violation (corpus or fresh) or, with enough clear-cut measurements,
//! when the cost model scores below coin-flip overall — the
//! `--quick` form of both gates runs in CI on every push.
//!
//! Run with: `cargo run --release -p amalur-bench --bin scenario_sweep`
//! (`--quick` for the CI smoke; `--seed N` to explore another slice).

use amalur_bench::write_report;
use amalur_cost::{
    load_or_calibrate, AmalurCostModel, CalibrationConfig, CostFeatures, CostModel,
    MorpheusHeuristic, TrainingWorkload, COST_PROFILE_FILE,
};
use amalur_factorize::FactorizedTable;
use amalur_gen::sample::SizeClass;
use amalur_gen::{check_and_shrink, sample_spec, Corpus, ScenarioSpec, ALL_WORKLOADS};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

/// Default sweep seed; `--seed N` overrides. Pinned so a red CI run
/// reproduces locally with no arguments.
const SWEEP_SEED: u64 = 0xC0FFEE;

/// Gap below which the measured factorized/materialized timings count
/// as a near-tie and are excluded from accuracy scoring (generated
/// scenarios are small; 20% keeps timing noise out of the denominator).
const NEAR_TIE: f64 = 0.20;

#[derive(Default)]
struct Bucket {
    scenarios: usize,
    clear_cut: usize,
    excluded: usize,
    amalur_correct: usize,
    morpheus_correct: usize,
}

/// `BENCH_coverage.json`.
#[derive(Serialize)]
struct Report {
    schema: &'static str,
    sweep: Sweep,
    equivalence: Equivalence,
    cost_model: CostModelReport,
}

#[derive(Serialize)]
struct Sweep {
    seed: u64,
    quick: bool,
    workloads: Vec<&'static str>,
}

#[derive(Serialize)]
struct Equivalence {
    scenarios: usize,
    violations: usize,
}

#[derive(Serialize)]
struct CostModelReport {
    oracle_epochs: usize,
    near_tie_tolerance: f64,
    buckets: Vec<BucketReport>,
}

/// One `topology/skew` bucket; an accuracy is `null` when the bucket
/// has no clear-cut scenario.
#[derive(Serialize)]
struct BucketReport {
    bucket: String,
    scenarios: usize,
    clear_cut: usize,
    excluded: usize,
    amalur_accuracy: Option<f64>,
    morpheus_accuracy: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(SWEEP_SEED);

    // Scenario budget: the acceptance bar is ≥ 100 swept scenarios in
    // the full run; quick keeps CI under a minute while still touching
    // all four topology families in both size classes.
    let (n_small, n_large) = if quick { (8u64, 4u64) } else { (72u64, 32u64) };

    let mut failures: Vec<String> = Vec::new();

    // --- 1. regression corpus ------------------------------------------------
    let corpus = Corpus::builtin();
    let corpus_violations = corpus.replay(&ALL_WORKLOADS);
    println!(
        "corpus: {} pinned scenarios, {} violations",
        corpus.entries.len(),
        corpus_violations.len()
    );
    for (entry, message) in &corpus_violations {
        failures.push(format!("corpus [{}]: {message}", entry.note));
    }

    // --- 2. differential sweep over fresh scenarios --------------------------
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    specs.extend((0..n_small).map(|i| sample_spec(seed, i, SizeClass::Small)));
    specs.extend((0..n_large).map(|i| sample_spec(seed ^ 0xB16, i, SizeClass::Large)));
    let n_equivalence_checked = corpus.entries.len() + specs.len();
    println!(
        "sweep: seed {seed:#x}, {} small + {} large scenarios, workloads linreg/logreg/kmeans/gnmf",
        n_small, n_large
    );
    let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, spec) in specs.iter().enumerate() {
        *by_kind.entry(spec.topology.kind()).or_default() += 1;
        if let Err(message) = check_and_shrink(spec, &ALL_WORKLOADS) {
            println!("  FAIL scenario #{i}: {message}");
            failures.push(format!("scenario #{i}: {message}"));
        }
    }
    println!(
        "equivalence: {}/{} scenarios agree on every workload ({})",
        n_equivalence_checked - failures.len(),
        n_equivalence_checked,
        by_kind
            .iter()
            .map(|(k, n)| format!("{k}×{n}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // --- 3. cost-model coverage on the large scenarios -----------------------
    let (profile, source) =
        load_or_calibrate(Path::new(COST_PROFILE_FILE), &CalibrationConfig::default());
    let amalur = AmalurCostModel::with_profile(profile);
    let morpheus = MorpheusHeuristic::default();
    let workload = TrainingWorkload {
        epochs: 60,
        x_cols: 1,
    };
    println!(
        "\ncost-model coverage (profile: {source}, near-tie tolerance {:.0}%):",
        NEAR_TIE * 100.0
    );
    let mut buckets: BTreeMap<String, Bucket> = BTreeMap::new();
    for spec in specs.iter().skip(n_small as usize) {
        let (md, data) = amalur_gen::generate(spec).expect("swept spec generates");
        let ft = FactorizedTable::new(md, data).expect("swept spec factorizes");
        let features = CostFeatures::from_table(&ft);
        let predicted_amalur = amalur.decide(&features, &workload);
        let predicted_morpheus = morpheus.decide(&features, &workload);
        let measurement = amalur_cost::measure_strategies(&ft, &workload);
        let bucket = buckets.entry(spec.bucket()).or_default();
        bucket.scenarios += 1;
        if measurement.is_near_tie(NEAR_TIE) {
            bucket.excluded += 1;
            continue;
        }
        let truth = measurement.ground_truth();
        bucket.clear_cut += 1;
        bucket.amalur_correct += usize::from(predicted_amalur == truth);
        bucket.morpheus_correct += usize::from(predicted_morpheus == truth);
    }
    let bucket_reports: Vec<BucketReport> = buckets
        .iter()
        .map(|(name, b)| {
            let acc =
                |correct: usize| (b.clear_cut > 0).then(|| correct as f64 / b.clear_cut as f64);
            BucketReport {
                bucket: name.clone(),
                scenarios: b.scenarios,
                clear_cut: b.clear_cut,
                excluded: b.excluded,
                amalur_accuracy: acc(b.amalur_correct),
                morpheus_accuracy: acc(b.morpheus_correct),
            }
        })
        .collect();
    let pct = |acc: Option<f64>| acc.map_or("-".to_owned(), |a| format!("{:.0}%", 100.0 * a));
    println!(
        "{:<22} {:>5} {:>9} {:>9} {:>8} {:>9}",
        "bucket", "n", "clear-cut", "excluded", "amalur", "morpheus"
    );
    for b in &bucket_reports {
        println!(
            "{:<22} {:>5} {:>9} {:>9} {:>8} {:>9}",
            b.bucket,
            b.scenarios,
            b.clear_cut,
            b.excluded,
            pct(b.amalur_accuracy),
            pct(b.morpheus_accuracy)
        );
    }

    // --- report --------------------------------------------------------------
    println!();
    write_report(
        "BENCH_coverage.json",
        &Report {
            schema: "amalur-bench-coverage/v1",
            sweep: Sweep {
                seed,
                quick,
                workloads: vec!["linreg", "logreg", "kmeans", "gnmf"],
            },
            equivalence: Equivalence {
                scenarios: n_equivalence_checked,
                violations: failures.len(),
            },
            cost_model: CostModelReport {
                oracle_epochs: workload.epochs,
                near_tie_tolerance: NEAR_TIE,
                buckets: bucket_reports,
            },
        },
    );

    // --- gates ---------------------------------------------------------------
    if !failures.is_empty() {
        eprintln!(
            "\n{} equivalence violation(s) — shrunk specs above are corpus-ready JSON \
             (append to crates/gen/corpus/regressions.json with the fix)",
            failures.len()
        );
        std::process::exit(1);
    }
    let clear: usize = buckets.values().map(|b| b.clear_cut).sum();
    let correct: usize = buckets.values().map(|b| b.amalur_correct).sum();
    // Quadrant-regression gate: with a meaningful number of clear-cut
    // measurements, the calibrated model must beat a coin flip across
    // the generated space (table3 enforces the stronger footnote-3
    // quadrant bar; this one catches topology-specific collapse).
    if clear >= 4 && correct * 2 < clear {
        eprintln!("\ncost-model regression: {correct}/{clear} clear-cut decisions correct (< 50%)");
        std::process::exit(1);
    }
    println!("scenario sweep green: equivalence holds, cost model {correct}/{clear} clear-cut");
}
