//! Federated ≡ centralized, end to end through the DI layer: party
//! feature spaces come from the mapping/indicator matrices (§V-A,
//! `X_A = I₁D₁M₁ᵀ`), training runs the threaded orchestrator protocol,
//! and the result must coincide with centralized gradient descent.

use amalur::federated::{party_views, train_fedavg, train_vfl, HflConfig, VflConfig};
use amalur::integration::integrate_pair;
use amalur::prelude::*;
use amalur_data::TwoSourceSpec;

/// VFL over a DI-aligned two-silo configuration with overlapping rows.
fn vfl_fixture() -> (Vec<DenseMatrix>, DenseMatrix, DenseMatrix) {
    vfl_fixture_sized(120)
}

fn vfl_fixture_sized(rows: usize) -> (Vec<DenseMatrix>, DenseMatrix, DenseMatrix) {
    let spec = TwoSourceSpec {
        rows_s1: rows,
        cols_s1: 3,
        rows_s2: (rows / 3).max(1),
        cols_s2: 5,
        shared_cols: 0,
        target_redundancy: true,
        row_coverage: 1.0,
        source_redundancy: false,
        seed: 21,
    };
    let (md, data) = amalur::data::generate_two_source(&spec).expect("valid spec");
    let ft = FactorizedTable::new(md, data).expect("consistent");
    let views = party_views(&ft).expect("aligned views");
    let xs: Vec<DenseMatrix> = views.into_iter().map(|v| v.features).collect();
    let concat = xs
        .iter()
        .skip(1)
        .fold(xs[0].clone(), |acc, x| acc.hstack(x).expect("aligned rows"));
    // Planted linear labels over the concatenated features.
    let theta: Vec<f64> = (0..concat.cols())
        .map(|j| if j % 2 == 0 { 0.8 } else { -0.6 })
        .collect();
    let y = DenseMatrix::column_vector(&concat.matvec(&theta).expect("shapes agree"));
    (xs, y, concat)
}

fn centralized_gd(x: &DenseMatrix, y: &DenseMatrix, epochs: usize, lr: f64) -> DenseMatrix {
    let n = x.rows() as f64;
    let mut theta = DenseMatrix::zeros(x.cols(), 1);
    for _ in 0..epochs {
        let resid = x.matmul(&theta).expect("shapes").sub(y).expect("shapes");
        let grad = x.transpose_matmul(&resid).expect("shapes");
        theta.axpy_assign(-lr / n, &grad).expect("shapes");
    }
    theta
}

#[test]
fn di_aligned_vfl_equals_centralized_plaintext() {
    let (xs, y, concat) = vfl_fixture();
    let epochs = 50;
    let lr = 0.05;
    let result = train_vfl(
        &xs,
        &y,
        &VflConfig {
            epochs,
            learning_rate: lr,
            l2: 0.0,
            privacy: PrivacyMode::Plaintext,
            seed: 1,
            ..VflConfig::default()
        },
    )
    .expect("protocol completes");
    let reference = centralized_gd(&concat, &y, epochs, lr);
    let stacked = result
        .coefficients
        .iter()
        .skip(1)
        .fold(result.coefficients[0].clone(), |acc, c| {
            acc.vstack(c).expect("column vectors")
        });
    assert!(
        stacked.approx_eq(&reference, 1e-9),
        "max diff {:?}",
        stacked.max_abs_diff(&reference)
    );
}

#[test]
fn secret_shared_vfl_has_bounded_quantization_error() {
    let (xs, y, concat) = vfl_fixture();
    let epochs = 25;
    let lr = 0.05;
    let result = train_vfl(
        &xs,
        &y,
        &VflConfig {
            epochs,
            learning_rate: lr,
            l2: 0.0,
            privacy: PrivacyMode::SecretShared,
            seed: 2,
            ..VflConfig::default()
        },
    )
    .expect("protocol completes");
    let reference = centralized_gd(&concat, &y, epochs, lr);
    let stacked = result
        .coefficients
        .iter()
        .skip(1)
        .fold(result.coefficients[0].clone(), |acc, c| {
            acc.vstack(c).expect("column vectors")
        });
    // Fixed-point scale 2⁻²⁰ per aggregation, accumulated over epochs.
    assert!(
        stacked.approx_eq(&reference, 1e-3),
        "max diff {:?}",
        stacked.max_abs_diff(&reference)
    );
    // The privacy did cost something measurable.
    assert!(result.comm.crypto_time > std::time::Duration::ZERO);
}

#[test]
fn paillier_vfl_matches_and_reports_encryption_overhead() {
    // Small: debug-mode Paillier costs ~10 ms per encryption.
    let (xs, y, concat) = vfl_fixture_sized(24);
    let epochs = 3;
    let lr = 0.05;
    let secure = train_vfl(
        &xs,
        &y,
        &VflConfig {
            epochs,
            learning_rate: lr,
            l2: 0.0,
            privacy: PrivacyMode::Paillier { key_bits: 128 },
            seed: 3,
            ..VflConfig::default()
        },
    )
    .expect("protocol completes");
    let reference = centralized_gd(&concat, &y, epochs, lr);
    let stacked = secure
        .coefficients
        .iter()
        .skip(1)
        .fold(secure.coefficients[0].clone(), |acc, c| {
            acc.vstack(c).expect("column vectors")
        });
    assert!(
        stacked.approx_eq(&reference, 1e-3),
        "max diff {:?}",
        stacked.max_abs_diff(&reference)
    );
    // §V-B: encryption overhead is real and observable.
    let plain = train_vfl(
        &xs,
        &y,
        &VflConfig {
            epochs,
            learning_rate: lr,
            l2: 0.0,
            privacy: PrivacyMode::Plaintext,
            seed: 3,
            ..VflConfig::default()
        },
    )
    .expect("protocol completes");
    assert!(secure.comm.crypto_time > plain.comm.crypto_time);
    assert!(secure.comm.total_bytes() > plain.comm.total_bytes());
}

#[test]
fn hfl_over_di_union_equals_centralized() {
    // Check the HFL parties through the DI union planner — the Example 4
    // path, each phone against the first — then check FedAvg (1 local
    // epoch) equals centralized GD.
    let phones = amalur::data::workloads::keyboard_silos(4, 50, 33);
    let opts = IntegrationOptions::with_exact_key("uid", "uid");
    for phone in &phones[1..] {
        let union =
            integrate_pair(&phones[0], phone, ScenarioKind::Union, &opts).expect("shared schema");
        assert_eq!(union.metadata.target_rows, 100);
        assert!(union
            .metadata
            .sources
            .iter()
            .all(|s| s.redundancy.is_all_ones()));
    }

    let feature_cols = ["dwell_ms", "flight_ms", "pressure", "x", "y"];
    let parties: Vec<PartySamples> = phones
        .iter()
        .map(|t| PartySamples {
            name: t.name().to_owned(),
            x: t.to_matrix(&feature_cols, 0.0).expect("numeric"),
            y: t.to_matrix(&["next_flight_ms"], 0.0).expect("target"),
        })
        .collect();
    let rounds = 20;
    let lr = 1e-6; // raw (unstandardized) features need a tiny rate
    let result = train_fedavg(
        &parties,
        &HflConfig {
            rounds,
            local_epochs: 1,
            learning_rate: lr,
            dp: None,
            seed: 4,
            ..HflConfig::default()
        },
    )
    .expect("protocol completes");

    // Centralized on the stacked union.
    let all_x = parties.iter().skip(1).fold(parties[0].x.clone(), |acc, p| {
        acc.vstack(&p.x).expect("same width")
    });
    let all_y = parties.iter().skip(1).fold(parties[0].y.clone(), |acc, p| {
        acc.vstack(&p.y).expect("one column")
    });
    let reference = centralized_gd(&all_x, &all_y, rounds, lr);
    assert!(
        result.global.approx_eq(&reference, 1e-9),
        "max diff {:?}",
        result.global.max_abs_diff(&reference)
    );
}
