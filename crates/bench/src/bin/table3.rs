//! **Table III**: percentage of correct factorization decisions,
//! Amalur vs Morpheus, across the four redundancy quadrants.
//!
//! Paper setting (footnote 3): `c_S1 = 1`, `c_S2 = 100`,
//! `r_S2 = 0.2 · r_S1`, `r_S1` swept over a ladder, ten scenarios per
//! quadrant; the correct decision is whichever strategy *measures*
//! faster on a GD-shaped workload (min over repetitions; near-ties are
//! excluded from scoring as timing noise). The paper's ladder tops out
//! at 5M rows; ours at 500k (same decision structure, laptop-scale
//! memory).
//!
//! Amalur's model runs with the machine's measured [`HardwareProfile`]:
//! `COST_PROFILE.json` is loaded when present, otherwise a fresh
//! calibration runs first (and saves it). This is what keeps the
//! accuracy check honest across kernel speedups — the crossover is
//! re-fit, not hardcoded.
//!
//! Run with: `cargo run --release -p amalur-bench --bin table3`
//! (`--quick` caps the ladder at 10k rows.) Exits non-zero when Amalur
//! scores below Morpheus in any quadrant or mispredicts a clear-cut
//! scenario at the top of the ladder, so CI catches cost-model rot.

use amalur_bench::{run_quadrant, QuadrantResult};
use amalur_cost::{
    load_or_calibrate, AmalurCostModel, CalibrationConfig, HardwareProfile, TrainingWorkload,
    COST_PROFILE_FILE,
};
use std::path::Path;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let full_ladder: Vec<usize> = vec![
        10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
    ];
    let ladder: Vec<usize> = if quick {
        full_ladder.into_iter().filter(|&r| r <= 10_000).collect()
    } else {
        full_ladder
    };
    // 100 GD epochs: enough training for the one-off materialization
    // cost to amortize, so the ground truth reflects the per-epoch
    // economics the cost models reason about (Example IV.1).
    let workload = TrainingWorkload {
        epochs: 100,
        x_cols: 1,
    };

    // Fallback calibration (no saved profile) deliberately uses the full
    // probe ladder even under --quick: the quick ladder (≤ 2k rows) fits
    // the dispatch-overhead-dominated regime and extrapolates a traffic
    // cost that flips the 10k-row decisions — measured here to fail this
    // very acceptance gate. The default ladder costs seconds.
    let (profile, source) =
        load_or_calibrate(Path::new(COST_PROFILE_FILE), &CalibrationConfig::default());
    let amalur = AmalurCostModel::with_profile(profile);
    println!("Table III reproduction — % correct factorize-vs-materialize decisions");
    println!(
        "cost profile ({source}): flop={:.4} traffic={:.4} correction={:.4} assembly={:.4} ns/unit",
        profile.flop_cost, profile.traffic_cost, profile.correction_cost, profile.assembly_cost
    );
    println!(
        "setting: c_S1=1, c_S2=100, r_S2=0.2·r_S1, r_S1 ∈ {ladder:?}, {} scenarios/quadrant, {} GD epochs\n",
        ladder.len(),
        workload.epochs
    );

    let mut results = Vec::new();
    for target_red in [true, false] {
        for source_red in [true, false] {
            results.push(run_quadrant(
                &ladder, target_red, source_red, &workload, &amalur,
            ));
        }
    }

    println!(
        "{:<38} {:>10} {:>10} {:>10}",
        "quadrant", "Morpheus", "Amalur", "excluded"
    );
    println!("{}", "-".repeat(72));
    for q in &results {
        println!(
            "target redundancy: {:<3} source: {:<3}      {:>9.0}% {:>9.0}% {:>10}",
            if q.target_redundancy { "yes" } else { "no" },
            if q.source_redundancy { "yes" } else { "no" },
            q.morpheus_correct * 100.0,
            q.amalur_correct * 100.0,
            q.excluded,
        );
    }

    println!("\npaper's Table III for comparison:");
    println!("  target yes:  Morpheus 70% / Amalur 70%   (both source columns)");
    println!("  target no :  Morpheus 20-30% / Amalur 70-80%");

    println!("\nper-scenario detail (truth / morpheus / amalur):");
    for q in &results {
        println!(
            "-- target_red={} source_red={}",
            q.target_redundancy, q.source_redundancy
        );
        for s in &q.scenarios {
            let note = if s.near_tie {
                "  (near-tie, excluded)"
            } else if s.amalur != s.truth {
                "  <- amalur miss"
            } else {
                ""
            };
            println!(
                "   r_S1={:<8} truth={:<11} morpheus={:<11} amalur={:<11} speedup={:>6.2}x{note}",
                s.rows_s1,
                s.truth.to_string(),
                s.morpheus.to_string(),
                s.amalur.to_string(),
                s.speedup,
            );
        }
    }

    // Shape assertions: the reproduction criteria for this table.
    let target_yes: Vec<_> = results.iter().filter(|q| q.target_redundancy).collect();
    let target_no: Vec<_> = results.iter().filter(|q| !q.target_redundancy).collect();
    let avg = |qs: &[&QuadrantResult], f: fn(&QuadrantResult) -> f64| {
        qs.iter().map(|q| f(q)).sum::<f64>() / qs.len() as f64
    };
    let amalur_no = avg(&target_no, |q| q.amalur_correct);
    let morpheus_no = avg(&target_no, |q| q.morpheus_correct);
    println!(
        "\nshape check: no-target-redundancy quadrants — Amalur {:.0}% vs Morpheus {:.0}% (expect Amalur ≫ Morpheus)",
        amalur_no * 100.0,
        morpheus_no * 100.0
    );
    let amalur_yes = avg(&target_yes, |q| q.amalur_correct);
    println!(
        "shape check: target-redundancy quadrants — Amalur {:.0}% (expect ≥ 70%)",
        amalur_yes * 100.0
    );
    if amalur_no > morpheus_no && amalur_yes >= 0.6 {
        println!("=> Table III shape REPRODUCED");
    } else if quick {
        println!(
            "=> Table III shape check skipped conclusions: --quick omits the large-r_S1 \
             rungs the ≥ 70% criterion depends on (run the full ladder)"
        );
    } else {
        println!("=> Table III shape NOT reproduced on this machine (noisy timings?)");
    }

    // CI gate: the calibrated model must not lose to the shape-only
    // heuristic anywhere, and the top of the ladder (where the stale
    // pre-calibration constants used to mispredict) must be clean.
    let failures = acceptance_failures(&results, &profile);
    if failures.is_empty() {
        println!("=> acceptance: Amalur ≥ Morpheus in all quadrants, top-of-ladder clean");
    } else {
        for f in &failures {
            eprintln!("ACCEPTANCE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}

/// The conditions CI enforces; returned as messages so failures are
/// actionable in the log.
fn acceptance_failures(results: &[QuadrantResult], profile: &HardwareProfile) -> Vec<String> {
    let mut failures = Vec::new();
    if !profile.is_valid() {
        failures.push("cost profile is invalid".to_owned());
    }
    for q in results {
        let quadrant = format!(
            "quadrant target_red={} source_red={}",
            q.target_redundancy, q.source_redundancy
        );
        if q.amalur_correct < q.morpheus_correct {
            failures.push(format!(
                "{quadrant}: Amalur {:.0}% below Morpheus {:.0}%",
                q.amalur_correct * 100.0,
                q.morpheus_correct * 100.0
            ));
        }
        if let Some(top) = q.scenarios.iter().rev().find(|s| !s.near_tie) {
            if top.amalur != top.truth {
                failures.push(format!(
                    "{quadrant}: top-of-ladder miss at r_S1={} (truth {}, amalur {}, speedup {:.2}x)",
                    top.rows_s1, top.truth, top.amalur, top.speedup
                ));
            }
        }
    }
    failures
}
