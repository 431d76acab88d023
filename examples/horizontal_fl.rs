//! Horizontal federated learning over keyboard silos (Example 4 / HFL).
//!
//! §I's second motivating example: "training models for keyboard stroke
//! prediction requires data from millions of phones". Each phone holds
//! the same feature schema over its own users (the union scenario);
//! FedAvg trains a shared next-keystroke-timing model without the raw
//! strokes ever leaving a phone, optionally with differential privacy
//! on the model updates.
//!
//! Run with: `cargo run --release --example horizontal_fl`

use amalur::federated::{train_fedavg, HflConfig};
use amalur::integration::integrate_pair;
use amalur::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 12 phones × 400 keystrokes, disjoint users, one shared signal.
    // ------------------------------------------------------------------
    let phones = amalur::data::workloads::keyboard_silos(12, 400, 9);
    println!(
        "{} phones, {} strokes each",
        phones.len(),
        phones[0].num_rows()
    );

    // The union scenario through the DI layer, each phone against the
    // first: shared feature schema, disjoint rows — Amalur's metadata
    // confirms there is no redundancy, i.e. nothing for factorization to
    // exploit (Example IV.1).
    let opts = IntegrationOptions::with_exact_key("uid", "uid");
    let unions: Vec<_> = phones[1..]
        .iter()
        .map(|phone| {
            integrate_pair(&phones[0], phone, ScenarioKind::Union, &opts)
                .expect("phones share a schema")
        })
        .collect();
    println!(
        "union target per phone pair: {} rows × {} cols; redundancy-free: {}",
        unions[0].metadata.target_rows,
        unions[0].metadata.target_cols(),
        unions
            .iter()
            .flat_map(|u| &u.metadata.sources)
            .all(|s| s.redundancy().is_all_ones()),
    );

    // ------------------------------------------------------------------
    // FedAvg with and without differential privacy.
    // ------------------------------------------------------------------
    let feature_cols = ["dwell_ms", "flight_ms", "pressure", "x", "y"];
    let parties: Vec<PartySamples> = phones
        .iter()
        .map(|t| {
            let x = standardize(&t.to_matrix(&feature_cols, 0.0).expect("numeric"));
            // Bias column: the target has a large mean the slopes alone
            // cannot express.
            let bias = DenseMatrix::ones(x.rows(), 1);
            PartySamples {
                name: t.name().to_owned(),
                x: x.hstack(&bias).expect("same rows"),
                y: t.to_matrix(&["next_flight_ms"], 0.0).expect("target"),
            }
        })
        .collect();

    println!(
        "\n{:<22} {:>12} {:>12} {:>10}",
        "configuration", "first loss", "final loss", "rounds"
    );
    for (label, dp) in [
        ("fedavg", None),
        ("fedavg + DP(ε=1.0)", Some((0.05, 1.0))),
        ("fedavg + DP(ε=0.1)", Some((0.05, 0.1))),
    ] {
        let config = HflConfig {
            rounds: 60,
            local_epochs: 2,
            learning_rate: 0.1,
            dp,
            seed: 11,
            ..HflConfig::default()
        };
        let result = train_fedavg(&parties, &config).expect("protocol completes");
        println!(
            "{:<22} {:>12.1} {:>12.1} {:>10}",
            label,
            result.loss_history.first().expect("rounds > 0"),
            result.loss_history.last().expect("rounds > 0"),
            config.rounds,
        );
    }
    println!("\n(the privacy budget buys noise: smaller ε ⇒ worse final loss — the");
    println!(" §V-B accuracy/privacy trade-off, observable per configuration)");

    // ------------------------------------------------------------------
    // Sanity: the federated model predicts held-out strokes.
    // ------------------------------------------------------------------
    let result = train_fedavg(
        &parties,
        &HflConfig {
            rounds: 120,
            local_epochs: 2,
            learning_rate: 0.1,
            dp: None,
            seed: 11,
            ..HflConfig::default()
        },
    )
    .expect("protocol completes");
    let test = &parties[0];
    let pred = test.x.matmul(&result.global).expect("aligned");
    let r2 = amalur::ml::metrics::r2(pred.as_slice(), test.y.as_slice());
    println!("\nglobal model R² on phone0: {r2:.3}");
    assert!(r2 > 0.9, "the planted shared signal must be learnable");
}

/// Column-wise standardization to zero mean / unit variance.
fn standardize(x: &DenseMatrix) -> DenseMatrix {
    let n = x.rows() as f64;
    let mut out = x.clone();
    for j in 0..x.cols() {
        let col = x.col(j);
        let mean = col.iter().sum::<f64>() / n;
        let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-9);
        for i in 0..x.rows() {
            out.set(i, j, (x.get(i, j) - mean) / std);
        }
    }
    out
}
