//! Worker warm-up is a reservation, not a product: booting a server,
//! publishing a version and warming it on first touch run no LMM, and
//! `serve.worker.warmups` counts one reservation per worker and dataset
//! version.
//!
//! `factorize.lmm.calls` is a process-wide counter, so this file is its
//! own test binary, with one test and no training in it.

use amalur_catalog::DatasetRegistry;
use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::FactorizedTable;
use amalur_matrix::DenseMatrix;
use amalur_obs::MetricsRegistry;
use amalur_serve::{PredictRequest, Server, ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn table(rows_s1: usize, seed: u64) -> FactorizedTable {
    let spec = TwoSourceSpec {
        rows_s1,
        cols_s1: 3,
        rows_s2: 30,
        cols_s2: 8,
        seed,
        ..TwoSourceSpec::default()
    };
    let (md, data) = generate_two_source(&spec).unwrap();
    FactorizedTable::new(md, data).unwrap()
}

fn counter(handle: &ServerHandle, name: &str) -> u64 {
    handle.metrics().counter(name).unwrap_or(0)
}

fn warmups(handle: &ServerHandle) -> u64 {
    counter(handle, "serve.worker.warmups")
}

/// Read off a registry of its own, so the count can be taken before the
/// server exists.
fn lmm_calls() -> u64 {
    let registry = MetricsRegistry::new();
    amalur_factorize::mount_metrics(&registry);
    registry
        .snapshot()
        .counter("factorize.lmm.calls")
        .unwrap_or(0)
}

/// Polls until `serve.worker.warmups` reads `want`, failing after a
/// generous timeout.
fn await_warmups(handle: &ServerHandle, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while warmups(handle) < want {
        assert!(
            Instant::now() < deadline,
            "warm-ups stuck at {}",
            warmups(handle)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn predict(handle: &ServerHandle, dataset: &str) -> PredictRequest {
    let c_t = handle
        .registry()
        .fetch(dataset)
        .unwrap()
        .data
        .target_shape()
        .1;
    PredictRequest {
        dataset: dataset.into(),
        version: None,
        features: DenseMatrix::filled(c_t, 1, 0.5),
    }
}

#[test]
fn warm_up_reserves_once_per_worker_and_version_and_runs_no_lmm() {
    let workers = 2;
    let registry = Arc::new(DatasetRegistry::new());
    registry.register("a", table(120, 1)).unwrap();
    registry.register("b", table(90, 2)).unwrap();
    let republished = table(200, 3);
    let calls = lmm_calls();
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();

    // Every worker warms every active dataset once, before any job.
    let at_start = workers as u64 * 2;
    await_warmups(&handle, at_start);
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(warmups(&handle), at_start);
    registry.publish("a", republished).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        warmups(&handle),
        at_start,
        "a publish warms nothing by itself"
    );
    assert_eq!(lmm_calls(), calls, "warm-up ran an LMM");

    // The new version's first batch warms the worker that takes it, then
    // runs the one LMM it serves.
    handle.predict(predict(&handle, "a")).unwrap();
    assert_eq!(warmups(&handle), at_start + 1);
    assert_eq!(lmm_calls(), calls + 1);

    // Backlogs of predicts reach the other worker sooner or later; each
    // worker warms the version once, however many batches it serves.
    let deadline = Instant::now() + Duration::from_secs(60);
    while warmups(&handle) < at_start + workers as u64 {
        assert!(Instant::now() < deadline, "a worker never took a predict");
        let tickets: Vec<_> = (0..16)
            .map(|_| handle.submit_predict(predict(&handle, "a")).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
    }
    for _ in 0..8 {
        handle.predict(predict(&handle, "a")).unwrap();
        handle.predict(predict(&handle, "b")).unwrap();
    }
    assert_eq!(warmups(&handle), at_start + workers as u64);
    server.shutdown();
}
