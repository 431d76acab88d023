//! End-to-end serving tests: batching equivalence (bit-identical),
//! admission control, graceful shutdown, steady-state allocations, and
//! mixed concurrent train/predict traffic.
//!
//! Batches form only out of the backlog behind busy workers, so the
//! tests that need a particular batch build that backlog behind a
//! one-worker server parked on a long train job ([`park_worker`]).

use amalur_catalog::DatasetRegistry;
use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::FactorizedTable;
use amalur_matrix::DenseMatrix;
use amalur_ml::LinRegConfig;
use amalur_serve::{
    PredictRequest, ServeError, Server, ServerConfig, ServerHandle, Ticket, TrainRequest,
    TrainResponse,
};
use std::sync::Arc;

fn fixture(seed: u64) -> FactorizedTable {
    let spec = TwoSourceSpec {
        rows_s1: 120,
        cols_s1: 3,
        rows_s2: 30,
        cols_s2: 8,
        seed,
        ..TwoSourceSpec::default()
    };
    let (md, data) = generate_two_source(&spec).unwrap();
    FactorizedTable::new(md, data).unwrap()
}

fn registry_with(name: &str, seed: u64) -> Arc<DatasetRegistry<FactorizedTable>> {
    let registry = Arc::new(DatasetRegistry::new());
    registry.register(name, fixture(seed)).unwrap();
    registry
}

fn feature_col(c_t: usize, tag: u64) -> DenseMatrix {
    let vals: Vec<f64> = (0..c_t)
        .map(|i| ((i as f64) * 0.37 + tag as f64 * 1.13).sin())
        .collect();
    DenseMatrix::from_vec(c_t, 1, vals).unwrap()
}

/// A `c_t × tags.len()` request whose column `j` is `feature_col(tags[j])`.
fn feature_cols(c_t: usize, tags: &[u64]) -> DenseMatrix {
    tags[1..].iter().fold(feature_col(c_t, tags[0]), |m, &t| {
        m.hstack(&feature_col(c_t, t)).unwrap()
    })
}

/// A predict on `dataset`'s latest version whose columns are `tags`.
fn request(dataset: &str, c_t: usize, tags: &[u64]) -> PredictRequest {
    PredictRequest {
        dataset: dataset.into(),
        version: None,
        features: feature_cols(c_t, tags),
    }
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Keeps a worker busy with a long train on `dataset`, so that what is
/// submitted next piles up in the pending queue behind it. The queue is
/// arrival-ordered, so the train goes first whether or not a worker had
/// already picked it up. Pair with [`assert_still_parked`] once the
/// backlog is in.
fn park_worker(handle: &ServerHandle, dataset: &str) -> Ticket<TrainResponse> {
    let r_t = handle
        .registry()
        .fetch(dataset)
        .unwrap()
        .data
        .target_shape()
        .0;
    handle
        .submit_train(TrainRequest {
            dataset: dataset.into(),
            version: None,
            labels: DenseMatrix::from_vec(r_t, 1, vec![1.0; r_t]).unwrap(),
            config: LinRegConfig {
                epochs: 10_000,
                learning_rate: 1e-4,
                ..LinRegConfig::default()
            },
        })
        .unwrap()
}

/// The parking train (the server's `nth`) had not finished when the last
/// job of the backlog was admitted, so a one-worker server has taken none
/// of it yet: the interleaving the caller's exact batch assertions depend
/// on did happen.
fn assert_still_parked(handle: &ServerHandle, nth: u64) {
    assert_eq!(
        handle.stats().trains_done,
        nth - 1,
        "the parking train finished before the backlog was in"
    );
}

#[test]
fn multi_column_request_is_bit_identical_alone_and_coalesced() {
    let registry = registry_with("ds", 7);
    let table = registry.fetch("ds").unwrap().data;
    let (r_t, c_t) = table.target_shape();
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            max_batch_cols: 16,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let tags = [3, 4, 5];
    let request = |tags: &[u64]| PredictRequest {
        dataset: "ds".into(),
        version: None,
        features: feature_cols(c_t, tags),
    };

    // Alone: nothing else is pending when the worker takes it.
    let alone = handle.predict(request(&tags)).unwrap();
    assert_eq!(alone.batched_with, 1);
    assert_eq!(alone.predictions.shape(), (r_t, 3));

    // Coalesced behind a two-column companion, so its columns sit at an
    // offset inside a five-column product.
    let parked = park_worker(&handle, "ds");
    let companion = handle.submit_predict(request(&[8, 9])).unwrap();
    let ticket = handle.submit_predict(request(&tags)).unwrap();
    assert_still_parked(&handle, 1);
    parked.wait().unwrap();
    assert_eq!(companion.wait().unwrap().batched_with, 2);
    let coalesced = ticket.wait().unwrap();
    assert_eq!(coalesced.batched_with, 2);
    let differing = bits(&coalesced.predictions)
        .iter()
        .zip(bits(&alone.predictions))
        .filter(|(a, b)| **a != *b)
        .count();
    assert_eq!(differing, 0, "of {} cells", r_t * 3);

    // And each column is what that column alone gets from `lmm_into`.
    let mut ws = amalur_matrix::Workspace::new();
    let mut single = DenseMatrix::zeros(r_t, 1);
    for (j, &tag) in tags.iter().enumerate() {
        table
            .lmm_into(&feature_col(c_t, tag), &mut single, &mut ws)
            .unwrap();
        let served: Vec<u64> = (0..r_t)
            .map(|i| alone.predictions.get(i, j).to_bits())
            .collect();
        assert_eq!(served, bits(&single), "column {j}");
    }
    server.shutdown();
}

#[test]
fn batched_predictions_are_bit_identical_to_unbatched() {
    let registry = registry_with("ds", 7);
    let table = registry.fetch("ds").unwrap().data;
    let (_, c_t) = table.target_shape();
    let n_requests = 8;

    // Reference: each request served with no coalescing at all.
    let solo = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            max_batch_cols: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let solo_handle = solo.handle();
    let solo_answers: Vec<DenseMatrix> = (0..n_requests)
        .map(|i| {
            let resp = solo_handle
                .predict(PredictRequest {
                    dataset: "ds".into(),
                    version: None,
                    features: feature_col(c_t, i),
                })
                .unwrap();
            assert_eq!(resp.batched_with, 1);
            resp.predictions
        })
        .collect();
    solo.shutdown();

    // Batched: the whole backlog behind a parked worker is one batch.
    let batched = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            max_batch_cols: 16,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = batched.handle();
    let parked = park_worker(&handle, "ds");
    let tickets: Vec<_> = (0..n_requests)
        .map(|i| {
            handle
                .submit_predict(PredictRequest {
                    dataset: "ds".into(),
                    version: None,
                    features: feature_col(c_t, i),
                })
                .unwrap()
        })
        .collect();
    assert_still_parked(&handle, 1);
    parked.wait().unwrap();
    for (ticket, expected) in tickets.into_iter().zip(&solo_answers) {
        let resp = ticket.wait().unwrap();
        assert_eq!(resp.batched_with, n_requests as usize);
        assert_eq!(resp.predictions.shape(), expected.shape());
        // Bit-identical, not approximately equal: the column-stable GEMM
        // guarantees coalescing can never change an answer.
        assert_eq!(bits(&resp.predictions), bits(expected));
    }
    let stats = handle.stats();
    assert_eq!(stats.coalesced_predicts, n_requests);
    assert_eq!(stats.predict_batches, 1);
    batched.shutdown();
}

/// The reply pass cuts replies out of the batch product in blocks of 64
/// rows; a 203-row table ends on a partial block, and 1-, 3-, 2- and
/// 1-column requests put every reply at a different offset and width.
#[test]
fn mixed_width_batch_replies_are_bit_identical_to_solo_requests() {
    let spec = TwoSourceSpec {
        rows_s1: 203,
        cols_s1: 3,
        rows_s2: 41,
        cols_s2: 6,
        seed: 5,
        ..TwoSourceSpec::default()
    };
    let (md, data) = generate_two_source(&spec).unwrap();
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register("ds", FactorizedTable::new(md, data).unwrap())
        .unwrap();
    let (r_t, c_t) = registry.fetch("ds").unwrap().data.target_shape();
    assert_eq!(r_t % 64, 11, "the last reply block must be partial");
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            max_batch_cols: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let requests: [&[u64]; 4] = [&[11], &[12, 13, 14], &[15, 16], &[17]];

    let alone: Vec<DenseMatrix> = requests
        .iter()
        .map(|tags| {
            let resp = handle.predict(request("ds", c_t, tags)).unwrap();
            assert_eq!(resp.batched_with, 1);
            resp.predictions
        })
        .collect();
    let parked = park_worker(&handle, "ds");
    let tickets: Vec<_> = requests
        .iter()
        .map(|tags| handle.submit_predict(request("ds", c_t, tags)).unwrap())
        .collect();
    assert_still_parked(&handle, 1);
    parked.wait().unwrap();
    for ((ticket, solo), tags) in tickets.into_iter().zip(&alone).zip(requests) {
        let resp = ticket.wait().unwrap();
        assert_eq!(resp.batched_with, 4);
        assert_eq!(resp.predictions.shape(), (r_t, tags.len()));
        assert_eq!(bits(&resp.predictions), bits(solo), "request {tags:?}");
    }
    server.shutdown();
}

#[test]
fn mixed_backlog_runs_as_one_batch_per_dataset() {
    let registry = registry_with("a", 7);
    registry.register("b", fixture(9)).unwrap();
    let c_t = registry.fetch("a").unwrap().data.target_shape().1;
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            max_batch_cols: 4,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let submit =
        |dataset: &str, tags: &[u64]| handle.submit_predict(request(dataset, c_t, tags)).unwrap();

    // a₁ b₁ a₂ b₂ a₃ behind a busy worker leave as {a₁,a₂,a₃} and {b₁,b₂}.
    let parked = park_worker(&handle, "a");
    let tickets = [
        submit("a", &[1]),
        submit("b", &[2]),
        submit("a", &[3]),
        submit("b", &[4]),
        submit("a", &[5]),
    ];
    assert_still_parked(&handle, 1);
    parked.wait().unwrap();
    let batched_with: Vec<usize> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().batched_with)
        .collect();
    assert_eq!(batched_with, [3, 2, 3, 2, 3]);
    assert_eq!(handle.stats().predict_batches, 2);

    // A request wider than the room left starts the next batch, and the
    // narrower one behind it does not overtake: 2 | 3 + 1, not 2 + 1 | 3.
    let parked = park_worker(&handle, "a");
    let tickets = [
        submit("a", &[1, 2]),
        submit("a", &[3, 4, 5]),
        submit("a", &[6]),
    ];
    assert_still_parked(&handle, 2);
    parked.wait().unwrap();
    let batched_with: Vec<usize> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().batched_with)
        .collect();
    assert_eq!(batched_with, [1, 2, 2]);
    assert_eq!(handle.stats().predict_batches, 4);
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_typed_overloaded() {
    let registry = registry_with("ds", 11);
    let table = registry.fetch("ds").unwrap().data;
    let (r_t, c_t) = table.target_shape();
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch_cols: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();

    // Occupy the only worker with a long training job...
    let train = handle
        .submit_train(TrainRequest {
            dataset: "ds".into(),
            version: None,
            labels: DenseMatrix::from_vec(r_t, 1, vec![1.0; r_t]).unwrap(),
            config: LinRegConfig {
                epochs: 5_000,
                learning_rate: 1e-4,
                ..LinRegConfig::default()
            },
        })
        .unwrap();
    // ...then flood predicts until the bounded queue pushes back.
    let mut accepted = Vec::new();
    let mut overloaded = false;
    for i in 0..1_000 {
        match handle.submit_predict(PredictRequest {
            dataset: "ds".into(),
            version: None,
            features: feature_col(c_t, i),
        }) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 2);
                overloaded = true;
                break;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(overloaded, "bounded queue never reported Overloaded");
    assert_eq!(handle.stats().rejected, 1);
    // The bound is exact: at most `queue_capacity` jobs are ever pending
    // (the train may still be one of them), and nothing hides more.
    assert!(
        (1..=2).contains(&accepted.len()),
        "{} predicts pending at capacity 2",
        accepted.len()
    );
    // Everything that was admitted still completes.
    train.wait().unwrap();
    for t in accepted {
        t.wait().unwrap();
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_admitted_requests_then_rejects_new_ones() {
    let registry = registry_with("ds", 13);
    let c_t = registry.fetch("ds").unwrap().data.target_shape().1;
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            handle
                .submit_predict(PredictRequest {
                    dataset: "ds".into(),
                    version: None,
                    features: feature_col(c_t, i),
                })
                .unwrap()
        })
        .collect();
    server.shutdown();
    // Every admitted ticket resolved successfully during the drain.
    for t in tickets {
        t.wait().unwrap();
    }
    assert!(matches!(
        handle.predict(PredictRequest {
            dataset: "ds".into(),
            version: None,
            features: feature_col(c_t, 0),
        }),
        Err(ServeError::ShuttingDown)
    ));
}

/// `Ok(ticket)` ⇒ `wait()` is `Ok`: admission and the drain flag are
/// decided under one lock, so a request is either refused or ahead of
/// the drain — never admitted behind it, which used to leave its ticket
/// waiting forever. A hang here is the failure; CI runs this under a
/// timeout, and the watchdog below turns a hang into a panic.
#[test]
fn shutdown_racing_with_admission_resolves_every_ticket() {
    let registry = registry_with("ds", 41);
    let c_t = registry.fetch("ds").unwrap().data.target_shape().1;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let rounds = std::thread::spawn(move || {
        let mut admitted = 0u64;
        for round in 0..200u64 {
            let server = Server::start(Arc::clone(&registry), ServerConfig::default())
                .expect("server starts");
            let clients: Vec<_> = (0..2u64)
                .map(|c| {
                    let handle = server.handle();
                    std::thread::spawn(move || {
                        // Submit without waiting, so that this thread
                        // spends its time inside admission, contending
                        // for the queue with the shutdown.
                        let mut tickets = Vec::new();
                        loop {
                            match handle.submit_predict(request("ds", c_t, &[c])) {
                                Ok(ticket) => tickets.push(ticket),
                                Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                                Err(ServeError::ShuttingDown) => break,
                                Err(e) => panic!("unexpected admission error: {e}"),
                            }
                        }
                        let admitted = tickets.len() as u64;
                        for ticket in tickets {
                            ticket.wait().expect("an admitted ticket resolves Ok");
                        }
                        admitted
                    })
                })
                .collect();
            // Let the clients get going, a different distance each round.
            while server.handle().stats().predicts_done < round % 7 {
                std::thread::yield_now();
            }
            server.shutdown();
            for c in clients {
                admitted += c.join().expect("client thread");
            }
        }
        let _ = done_tx.send(admitted);
    });
    let admitted = done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("a ticket admitted across shutdown never resolved");
    rounds.join().unwrap();
    assert!(admitted > 0);
}

#[test]
fn steady_state_serving_is_workspace_allocation_free() {
    let registry = registry_with("ds", 17);
    let c_t = registry.fetch("ds").unwrap().data.target_shape().1;
    let max_batch_cols = 4;
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            max_batch_cols: max_batch_cols as usize,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    // `width` single-column requests submitted together (they coalesce
    // or not as timing has it), then one request `width` columns wide.
    let send_round = |round: u64, width: u64| {
        let tickets: Vec<_> = (0..width)
            .map(|i| {
                handle
                    .submit_predict(request("ds", c_t, &[round * 10 + i]))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let tags: Vec<u64> = (0..width).map(|i| round * 10 + i).collect();
        let wide = handle.predict(request("ds", c_t, &tags)).unwrap();
        assert_eq!(wide.predictions.cols(), width as usize);
    };
    // The worker sized its shard for full-width batches on "ds" before
    // it took its first job, so one narrow round is all the warm-up.
    send_round(0, 1);
    let warm = handle.fresh_workspace_allocations();
    assert!(warm > 0, "warm-up must have populated the pool");
    for round in 1..41 {
        send_round(round, 1 + round % max_batch_cols);
    }
    assert_eq!(
        handle.fresh_workspace_allocations(),
        warm,
        "steady-state serving allocated fresh workspace buffers"
    );
    server.shutdown();
}

#[test]
fn dataset_registered_after_start_is_warmed_on_first_touch() {
    let registry = registry_with("ds", 17);
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            max_batch_cols: 4,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    // A bigger table than the one the worker warmed up on at start.
    let spec = TwoSourceSpec {
        rows_s1: 300,
        cols_s1: 4,
        rows_s2: 60,
        cols_s2: 9,
        seed: 3,
        ..TwoSourceSpec::default()
    };
    let (md, data) = generate_two_source(&spec).unwrap();
    registry
        .register("late", FactorizedTable::new(md, data).unwrap())
        .unwrap();
    let c_t = registry.fetch("late").unwrap().data.target_shape().1;

    let before = handle.fresh_workspace_allocations();
    handle.predict(request("late", c_t, &[1])).unwrap();
    let warm = handle.fresh_workspace_allocations();
    assert!(warm > before, "the bigger table needs bigger buffers");
    for tags in [&[1, 2, 3, 4][..], &[5, 6], &[7, 8, 9], &[1]] {
        handle.predict(request("late", c_t, tags)).unwrap();
    }
    assert_eq!(handle.fresh_workspace_allocations(), warm);
    server.shutdown();
}

/// A republished dataset is a new version to warm, even under a name the
/// worker has served before: the first batch on a bigger version sizes
/// the shard for a full-width batch, so a wider one later allocates
/// nothing.
#[test]
fn republished_dataset_is_rewarmed_on_first_touch() {
    let registry = registry_with("ds", 17);
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            max_batch_cols: 4,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let c_t = registry.fetch("ds").unwrap().data.target_shape().1;
    handle.predict(request("ds", c_t, &[1, 2, 3, 4])).unwrap();
    let spec = TwoSourceSpec {
        rows_s1: 480,
        cols_s1: 3,
        rows_s2: 30,
        cols_s2: 8,
        seed: 18,
        ..TwoSourceSpec::default()
    };
    let (md, data) = generate_two_source(&spec).unwrap();
    let bigger = FactorizedTable::new(md, data).unwrap();
    assert_eq!(bigger.target_shape(), (480, c_t));
    registry.publish("ds", bigger).unwrap();

    let before = handle.fresh_workspace_allocations();
    let reply = handle.predict(request("ds", c_t, &[1])).unwrap();
    assert_eq!(reply.predictions.shape(), (480, 1));
    let warm = handle.fresh_workspace_allocations();
    assert!(warm > before, "the bigger version needs bigger buffers");
    for tags in [&[1, 2, 3, 4][..], &[5, 6], &[7, 8, 9], &[1]] {
        handle.predict(request("ds", c_t, tags)).unwrap();
    }
    assert_eq!(handle.fresh_workspace_allocations(), warm);
    server.shutdown();
}

#[test]
fn unknown_dataset_and_bad_shapes_fail_at_admission() {
    let registry = registry_with("ds", 19);
    let c_t = registry.fetch("ds").unwrap().data.target_shape().1;
    let server =
        Server::start(Arc::clone(&registry), ServerConfig::default()).expect("server starts");
    let handle = server.handle();
    assert!(matches!(
        handle.predict(PredictRequest {
            dataset: "missing".into(),
            version: None,
            features: feature_col(c_t, 0),
        }),
        Err(ServeError::Dataset(_))
    ));
    assert!(matches!(
        handle.predict(PredictRequest {
            dataset: "ds".into(),
            version: Some(99),
            features: feature_col(c_t, 0),
        }),
        Err(ServeError::Dataset(_))
    ));
    assert!(matches!(
        handle.predict(PredictRequest {
            dataset: "ds".into(),
            version: None,
            features: feature_col(c_t + 1, 0),
        }),
        Err(ServeError::BadRequest(_))
    ));
    // Rejected-at-admission requests consume no accepted slots.
    assert_eq!(handle.stats().accepted, 0);
    server.shutdown();
}

#[test]
fn concurrent_train_and_predict_traffic_stays_deterministic() {
    let registry = registry_with("ds", 23);
    let table = registry.fetch("ds").unwrap().data;
    let (r_t, c_t) = table.target_shape();
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let labels = DenseMatrix::from_vec(r_t, 1, (0..r_t).map(|i| (i % 7) as f64).collect()).unwrap();
    let config = LinRegConfig {
        epochs: 30,
        learning_rate: 1e-3,
        ..LinRegConfig::default()
    };

    let mut clients = Vec::new();
    for t in 0..4u64 {
        let handle = handle.clone();
        let labels = labels.clone();
        let config = config.clone();
        clients.push(std::thread::spawn(move || {
            let mut coef_bits: Vec<Vec<u64>> = Vec::new();
            for i in 0..10 {
                if i % 5 == 0 {
                    let resp = handle
                        .train(TrainRequest {
                            dataset: "ds".into(),
                            version: None,
                            labels: labels.clone(),
                            config: config.clone(),
                        })
                        .unwrap();
                    coef_bits.push(
                        resp.coefficients
                            .as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect(),
                    );
                } else {
                    handle
                        .predict(PredictRequest {
                            dataset: "ds".into(),
                            version: None,
                            features: feature_col(c_t, t * 100 + i),
                        })
                        .unwrap();
                }
            }
            coef_bits
        }));
    }
    let all_coefs: Vec<Vec<u64>> = clients
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    // Training is deterministic (zero init, fixed schedule): every fit of
    // the same request must produce bit-identical coefficients, no matter
    // which worker ran it or what ran concurrently.
    for c in &all_coefs[1..] {
        assert_eq!(c, &all_coefs[0]);
    }
    let stats = handle.stats();
    assert_eq!(stats.trains_done, 8);
    assert_eq!(stats.predicts_done, 32);
    server.shutdown();
}

#[test]
fn metrics_snapshot_agrees_with_stats_counters() {
    let registry = registry_with("ds", 37);
    let table = registry.fetch("ds").unwrap().data;
    let (r_t, c_t) = table.target_shape();
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            max_batch_cols: 4,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    for i in 0..9u64 {
        handle
            .predict(PredictRequest {
                dataset: "ds".into(),
                version: None,
                features: feature_col(c_t, i),
            })
            .unwrap();
    }
    handle
        .train(TrainRequest {
            dataset: "ds".into(),
            version: None,
            labels: DenseMatrix::from_vec(r_t, 1, vec![1.0; r_t]).unwrap(),
            config: LinRegConfig {
                epochs: 10,
                learning_rate: 1e-3,
                ..LinRegConfig::default()
            },
        })
        .unwrap();
    let stats = handle.stats();
    let snap = handle.metrics();

    // `stats()` is a view of this registry: each field is one of its
    // counters or one of its histograms' sample counts.
    assert_eq!(stats.accepted, 10);
    assert_eq!(
        snap.counter("serve.requests.rejected"),
        Some(stats.rejected)
    );
    assert_eq!(
        snap.counter("serve.batch.coalesced_predicts"),
        Some(stats.coalesced_predicts)
    );
    assert_eq!((stats.predicts_done, stats.trains_done), (9, 1));

    // Every completed predict shows up in the latency and queue-wait
    // histograms; every admitted request in its counter.
    let latency = snap.histogram("serve.predict.latency_us").unwrap();
    assert_eq!(latency.count(), stats.predicts_done);
    let wait = snap.histogram("serve.predict.queue_wait_us").unwrap();
    assert_eq!(wait.count(), stats.predicts_done);
    assert_eq!(snap.counter("serve.requests.predict"), Some(9));
    assert_eq!(snap.counter("serve.requests.train"), Some(1));
    assert_eq!(snap.counter("serve.dataset.ds.predicts"), Some(9));
    assert_eq!(
        snap.histogram("serve.train.latency_us").unwrap().count(),
        stats.trains_done
    );

    // Each executed batch records one width / jobs / fill sample; these
    // blocking predicts each ran alone, a quarter of a full batch.
    assert_eq!(stats.predict_batches, 9);
    for name in ["serve.batch.width_cols", "serve.batch.jobs"] {
        let h = snap.histogram(name).unwrap();
        assert_eq!((h.count(), h.sum()), (9, 9), "{name}");
    }
    let fill = snap.histogram("serve.batch.fill_pct").unwrap();
    assert_eq!((fill.count(), fill.sum()), (9, 9 * 25));

    // The mounted kernel-layer statics are visible through the same
    // snapshot, and the serving path drove the column-stable kernel.
    assert!(snap.counter("factorize.lmm.calls").unwrap_or(0) >= 1);
    assert!(snap.gauge("matrix.workspace.high_water_elems").unwrap_or(0) >= 1);

    // Percentiles come out monotone and the dump embeds them.
    assert!(latency.quantile(0.50) <= latency.quantile(0.95));
    assert!(latency.quantile(0.95) <= latency.quantile(0.99));
    let json = serde_json::to_string_pretty(&snap).unwrap();
    assert!(json.contains("\"schema\": \"amalur-obs/v1\""));
    assert!(json.contains("serve.predict.latency_us"));
    server.shutdown();
}

#[test]
fn version_pinning_serves_the_pinned_snapshot() {
    let registry = registry_with("ds", 29);
    let c_t = registry.fetch("ds").unwrap().data.target_shape().1;
    let server =
        Server::start(Arc::clone(&registry), ServerConfig::default()).expect("server starts");
    let handle = server.handle();
    let x = feature_col(c_t, 3);
    let v1_resp = handle
        .predict(PredictRequest {
            dataset: "ds".into(),
            version: None,
            features: x.clone(),
        })
        .unwrap();
    assert_eq!(v1_resp.version, 1);

    // Publish a different table under the same name (same shape, new data).
    registry.publish("ds", fixture(31)).unwrap();
    let latest = handle
        .predict(PredictRequest {
            dataset: "ds".into(),
            version: None,
            features: x.clone(),
        })
        .unwrap();
    assert_eq!(latest.version, 2);
    let pinned = handle
        .predict(PredictRequest {
            dataset: "ds".into(),
            version: Some(1),
            features: x,
        })
        .unwrap();
    assert_eq!(pinned.version, 1);
    assert_eq!(
        pinned.predictions.as_slice(),
        v1_resp.predictions.as_slice()
    );
    assert_ne!(latest.predictions.as_slice(), pinned.predictions.as_slice());
    server.shutdown();
}
