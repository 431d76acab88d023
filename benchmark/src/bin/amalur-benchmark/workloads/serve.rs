//! `serve_steady` and `serve_burst_mixed`: open-loop predict traffic
//! against a running `amalur-serve` server. The operation is one predict;
//! its latency runs from the instant the request was *due*.
//!
//! * **steady** — single predicts, evenly spaced, one dataset, reads only.
//!   Batches stay one request wide, so this times admission, the batch
//!   window and the solo `lmm_into` path: the control for batching changes.
//! * **burst_mixed** — bursts of 16 same-dataset predicts alternating 3:1
//!   over two datasets, a retrain every 250 ms and a publish every second
//!   beside them, then a closed-loop saturation phase.
//!
//! Load comes from two threads, the machine's `nproc` on the reference
//! box: a generator that fires the schedule and a collector that waits
//! for the replies in order (the saturation phase uses `nproc` clients).

use crate::harness::{
    bit_equal, counter_delta, err, repeat_setup, replay_ms, spans_on, Outcome, RunConfig,
};
use crate::inputs::{request_stream, scoring_vectors, Arrival};
use crate::rng::Rng;
use crate::schedule::{due_times_ns, pace, Clock, WallClock};
use crate::stats::{median, median_of_windows, percentile};
use crate::trace::{durations_ms, Layer, Tracer};
use amalur_catalog::DatasetRegistry;
use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::FactorizedTable;
use amalur_matrix::{DenseMatrix, Workspace};
use amalur_ml::LinRegConfig;
use amalur_serve::{
    MetricsSnapshot, PredictRequest, PredictResponse, Server, ServerConfig, ServerHandle, Ticket,
    TrainRequest, TrainResponse,
};
use std::collections::VecDeque;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Steady,
    BurstMixed,
}

/// About 28 % of what the solo path sustains on the reference box.
const STEADY_RATE: f64 = 1000.0;
const BURST_RATE: f64 = 1500.0;
const BURST: usize = 16;
const RETRAIN_EVERY_S: f64 = 0.25;
const PUBLISH_EVERY_S: f64 = 1.0;
const RETRAIN_EPOCHS: usize = 5;
/// Distinct scoring vectors per dataset; requests draw from this pool.
const POOL: usize = 64;
/// Every this-many-th reply is compared bit for bit with a local product.
const CHECK_EVERY: usize = 100;
/// Share of the measured phase that `serve_burst_mixed` spends open loop;
/// the rest is its saturation phase.
const BURST_OPEN_SHARE: f64 = 0.7;
const WINDOW_S: f64 = 1.0;
const OUTSTANDING_PER_CLIENT: usize = 32;

struct Dataset {
    name: &'static str,
    table: Arc<FactorizedTable>,
    pool: Vec<DenseMatrix>,
    /// `table · pool[i]` computed here with `lmm_into`, no server involved.
    reference: Vec<DenseMatrix>,
    labels: DenseMatrix,
}

struct Running {
    server: Option<Server>,
    client: ServerHandle,
    datasets: Vec<Dataset>,
    /// Copies of dataset 0 built ahead of time, one per publish.
    republish: Vec<FactorizedTable>,
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn build_table(
    rows: usize,
    dim_rows: usize,
    dim_cols: usize,
    seed: u64,
) -> Result<FactorizedTable, String> {
    let spec = TwoSourceSpec {
        rows_s1: rows,
        cols_s1: 3,
        rows_s2: dim_rows,
        cols_s2: dim_cols,
        seed,
        ..TwoSourceSpec::default()
    };
    let (metadata, data) = generate_two_source(&spec).map_err(err("generate_two_source"))?;
    FactorizedTable::new(metadata, data).map_err(err("FactorizedTable::new"))
}

fn predict_request(d: &Dataset, vector: usize) -> PredictRequest {
    PredictRequest {
        dataset: d.name.to_owned(),
        version: None,
        features: d.pool[vector].clone(),
    }
}

/// Generates the datasets, registers them, boots the server and sends it
/// a warm-up pass — everything a deployment does before taking traffic.
fn setup(cfg: &RunConfig, mix: Mix) -> Result<Running, String> {
    let mut rng = Rng::fork(cfg.seed, "serve_setup");
    let mut shapes = vec![(
        "dataset_a",
        cfg.scale.rows(20_000, 2000),
        cfg.scale.rows(4000, 400),
        40,
    )];
    if mix == Mix::BurstMixed {
        shapes.push((
            "dataset_b",
            cfg.scale.rows(10_000, 1000),
            cfg.scale.rows(2000, 200),
            20,
        ));
    }
    let registry = Arc::new(DatasetRegistry::new());
    let mut datasets = Vec::new();
    let mut republish = Vec::new();
    for (name, rows, dim_rows, dim_cols) in shapes {
        let table = build_table(rows, dim_rows, dim_cols, rng.next_u64())?;
        if name == "dataset_a" && mix == Mix::BurstMixed {
            let publishes = (cfg.seconds * BURST_OPEN_SHARE / PUBLISH_EVERY_S).ceil() as usize;
            republish = vec![table.clone(); publishes];
        }
        let table = registry
            .register(name, table)
            .map_err(err("register"))?
            .data;
        let (rows, cols) = table.target_shape();
        let pool: Vec<DenseMatrix> = scoring_vectors(cfg.seed, name, POOL, cols)
            .iter()
            .map(|v| DenseMatrix::column_vector(v))
            .collect();
        let mut ws = Workspace::new();
        let mut reference = Vec::with_capacity(POOL);
        for x in &pool {
            let mut y = DenseMatrix::zeros(rows, 1);
            table
                .lmm_into(x, &mut y, &mut ws)
                .map_err(err("reference lmm_into"))?;
            reference.push(y);
        }
        let labels = DenseMatrix::column_vector(
            &(0..rows)
                .map(|_| rng.range_f64(-1.0, 1.0))
                .collect::<Vec<_>>(),
        );
        datasets.push(Dataset {
            name,
            table,
            pool,
            reference,
            labels,
        });
    }
    let server = Server::start(registry, ServerConfig::default()).map_err(err("Server::start"))?;
    let run = Running {
        client: server.handle(),
        server: Some(server),
        datasets,
        republish,
    };
    for d in &run.datasets {
        for v in 0..POOL {
            let resp = run
                .client
                .predict(predict_request(d, v))
                .map_err(err("warm-up predict"))?;
            if !bit_equal(&resp.predictions, &d.reference[v]) {
                return Err(format!(
                    "warm-up: reply {v} on {} differs from lmm_into",
                    d.name
                ));
            }
        }
    }
    Ok(run)
}

/// What the generator does at a due time.
enum Event {
    Predict(Arrival),
    Retrain,
    Publish,
}

/// Merges the predict stream with the retrain and publish timers.
fn schedule(cfg: &RunConfig, mix: Mix, seconds: f64) -> Vec<(u64, Event)> {
    let (rate, burst, datasets) = match mix {
        Mix::Steady => (STEADY_RATE, 1, 1),
        Mix::BurstMixed => (BURST_RATE, BURST, 2),
    };
    let due = due_times_ns(rate, burst, seconds);
    let mut events: Vec<(u64, Event)> = request_stream(cfg.seed, &due, datasets, POOL)
        .into_iter()
        .map(|a| (a.due_ns, Event::Predict(a)))
        .collect();
    if mix == Mix::BurstMixed {
        let every = |period_s: f64| {
            // Offset by half a period so timers do not coincide with bursts.
            (0..(seconds / period_s).floor() as usize)
                .map(move |i| ((i as f64 + 0.5) * period_s * 1e9) as u64)
        };
        events.extend(every(RETRAIN_EVERY_S).map(|t| (t, Event::Retrain)));
        events.extend(every(PUBLISH_EVERY_S).map(|t| (t, Event::Publish)));
        events.sort_by_key(|(t, _)| *t); // stable: predicts keep their order
    }
    events
}

/// A predict on its way from the generator to the collector.
struct InFlight {
    ticket: Ticket<PredictResponse>,
    due_ns: u64,
    dataset: usize,
    vector: usize,
    check: bool,
}

#[derive(Default)]
struct OpenLoop {
    /// `(due time s, latency ms)` of every answered predict.
    samples: Vec<(f64, f64)>,
    late_ns: Vec<u64>,
    publish_us: Vec<f64>,
    attempted: u64,
    refused: u64,
    failed: u64,
    wrong: u64,
    /// From the first due time to the last reply.
    wall_s: f64,
}

/// Fires the schedule from this thread while a second thread collects the
/// replies in order.
fn open_loop(
    run: &mut Running,
    events: &[(u64, Event)],
    trace: bool,
    tr: &mut Tracer,
) -> Result<OpenLoop, String> {
    let mut res = OpenLoop::default();
    let clock = WallClock::start_now();
    let client = run.client.clone();
    let datasets = &run.datasets;
    let republish = &mut run.republish;
    let due: Vec<u64> = events.iter().map(|(t, _)| *t).collect();
    // Requests are built ahead of time; the generator only submits.
    let mut requests: Vec<Option<PredictRequest>> = events
        .iter()
        .map(|(_, e)| match e {
            Event::Predict(a) => Some(predict_request(&datasets[a.dataset], a.vector)),
            _ => None,
        })
        .collect();
    let (tx, rx) = sync_channel::<InFlight>(4096);
    let mut retrains: Vec<Ticket<TrainResponse>> = Vec::new();
    let mut error = None;

    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut samples = Vec::new();
            let (mut failed, mut wrong, mut last_ns) = (0u64, 0u64, 0u64);
            for msg in rx {
                match msg.ticket.wait() {
                    Ok(resp) => {
                        last_ns = clock.now_ns();
                        samples.push((
                            msg.due_ns as f64 / 1e9,
                            last_ns.saturating_sub(msg.due_ns) as f64 / 1e6,
                        ));
                        let reference = &datasets[msg.dataset].reference[msg.vector];
                        if msg.check && !bit_equal(&resp.predictions, reference) {
                            wrong += 1;
                        }
                    }
                    Err(_) => failed += 1,
                }
            }
            (samples, failed, wrong, last_ns)
        });

        let mut predicts = 0usize;
        res.late_ns = pace(&clock, &due, |i, due_ns| match &events[i].1 {
            Event::Predict(a) => {
                let Some(req) = requests[i].take() else {
                    return;
                };
                tr.set_on(trace && spans_on_at(due_ns as f64 / 1e9));
                res.attempted += 1;
                match tr.span(Layer::Serve, "submit_predict", i as u32, |_| {
                    client.submit_predict(req)
                }) {
                    Ok(ticket) => {
                        let msg = InFlight {
                            ticket,
                            due_ns,
                            dataset: a.dataset,
                            vector: a.vector,
                            check: predicts.is_multiple_of(CHECK_EVERY),
                        };
                        if tx.send(msg).is_err() {
                            error = Some("collector thread ended early".to_owned());
                        }
                    }
                    Err(_) => res.refused += 1,
                }
                predicts += 1;
            }
            Event::Retrain => {
                res.attempted += 1;
                let d = &datasets[0];
                match client.submit_train(TrainRequest {
                    dataset: d.name.to_owned(),
                    version: None,
                    labels: d.labels.clone(),
                    config: LinRegConfig {
                        epochs: RETRAIN_EPOCHS,
                        learning_rate: 0.01,
                        l2: 0.0,
                        tolerance: 0.0,
                    },
                }) {
                    Ok(ticket) => retrains.push(ticket),
                    Err(_) => res.refused += 1,
                }
            }
            Event::Publish => {
                res.attempted += 1;
                let Some(table) = republish.pop() else { return };
                let t = Instant::now();
                if client.registry().publish(datasets[0].name, table).is_err() {
                    res.failed += 1;
                }
                res.publish_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        });
        drop(tx);
        collector.join()
    });
    let (samples, failed, wrong, last_ns) =
        collected.map_err(|_| "collector thread panicked".to_owned())?;
    if let Some(e) = error {
        return Err(e);
    }
    res.samples = samples;
    res.failed += failed;
    res.wrong = wrong;
    res.wall_s = last_ns as f64 / 1e9;
    for t in retrains {
        match t.wait() {
            Ok(r) if r.epochs_run == RETRAIN_EPOCHS => {}
            _ => res.failed += 1,
        }
    }
    Ok(res)
}

/// Closed loop: `nproc` clients, each keeping 32 predicts outstanding.
/// Returns (predicts completed, failed, wall seconds).
fn saturate(run: &Running, seconds: f64) -> (u64, u64, f64) {
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    let counts: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = run.client.clone();
                let datasets = &run.datasets;
                scope.spawn(move || {
                    let (mut done, mut failed) = (0u64, 0u64);
                    let mut outstanding: VecDeque<Ticket<PredictResponse>> = VecDeque::new();
                    let mut next = c * 7919; // clients walk the pool out of step
                    loop {
                        let open = start.elapsed().as_secs_f64() < seconds;
                        while open && outstanding.len() < OUTSTANDING_PER_CLIENT {
                            // Runs of 16 on one dataset, 3:1 over the two.
                            let d = if datasets.len() > 1 && (next / BURST) % 4 == 3 {
                                1
                            } else {
                                0
                            };
                            match client.submit_predict(predict_request(&datasets[d], next % POOL))
                            {
                                Ok(t) => outstanding.push_back(t),
                                Err(_) => failed += 1,
                            }
                            next += 1;
                        }
                        match outstanding.pop_front().map(Ticket::wait) {
                            Some(Ok(_)) => done += 1,
                            Some(Err(_)) => failed += 1,
                            None => break,
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or((0, 1)))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    (
        counts.iter().map(|c| c.0).sum(),
        counts.iter().map(|c| c.1).sum(),
        wall,
    )
}

/// A traced run records spans in every other window, as the closed loops
/// do on every other operation.
fn spans_on_at(due_s: f64) -> bool {
    spans_on((due_s / WINDOW_S) as u32)
}

fn windowed(samples: &[(f64, f64)], p: f64) -> (f64, usize) {
    // A percentile needs ten samples beyond it in every window.
    let need = (10.0 / (1.0 - p / 100.0)).ceil() as usize;
    median_of_windows(samples, WINDOW_S, need, |w| percentile(w, p))
}

/// Median of one of the server's own histograms: the middle of the
/// bucket that holds it (buckets are a quarter of an octave wide).
fn histogram_p50(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| {
        (h.quantile_lower(0.5) + h.quantile(0.5)) as f64 / 2.0
    })
}

pub fn run(cfg: &RunConfig, mix: Mix) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut run, setup_s) = repeat_setup(|| setup(cfg, mix))?;
    let open_s = match mix {
        Mix::Steady => cfg.seconds,
        Mix::BurstMixed => cfg.seconds * BURST_OPEN_SHARE,
    };
    let events = schedule(cfg, mix, open_s);

    let before = run.client.metrics();
    let allocs_before = run.client.fresh_workspace_allocations();
    let mut tr = Tracer::new(cfg.trace);
    let open = open_loop(&mut run, &events, cfg.trace, &mut tr)?;
    let after = run.client.metrics();
    let stats = run.client.stats();
    let allocs = run.client.fresh_workspace_allocations() - allocs_before;

    // Each refused, failed or wrongly answered request is one failed
    // operation; the messages only say which kind it was.
    out.attempted += open.attempted;
    out.failed += open.refused + open.failed + open.wrong;
    for (count, what) in [
        (open.refused, "requests refused at admission"),
        (open.failed, "requests or publishes failed"),
        (
            open.wrong,
            "checked replies differ from the local lmm_into reference",
        ),
    ] {
        if count > 0 {
            out.gate_failures.push(format!("{count} {what}"));
        }
    }

    let (p50, windows) = windowed(&open.samples, 50.0);
    let mut throughput = open.samples.len() as f64 / open.wall_s;
    if mix == Mix::BurstMixed {
        let (done, failed, wall) = saturate(&run, cfg.seconds - open_s);
        out.attempted += done + failed;
        out.failed += failed;
        throughput = done as f64 / wall;
        out.samples.insert("saturation_predicts", done as usize);
    }
    out.samples.insert("predicts", open.samples.len());
    out.samples.insert("windows", windows);

    if !cfg.trace {
        out.metrics.insert("setup_s", setup_s);
        out.metrics.insert("op_p50_ms", p50);
        out.metrics.insert("ops_per_s", throughput);
        return Ok(out);
    }

    let counted = |name: &str| counter_delta(&before, &after, name);
    let server_p50_us = histogram_p50(&after, "serve.predict.latency_us");
    let late_us: Vec<f64> = open.late_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let admit_us: Vec<f64> = durations_ms(tr.spans(), "submit_predict")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let widths = after.histogram("serve.batch.width_cols");
    let workers = ServerConfig::default().workers as f64;
    let m = &mut out.metrics;
    m.insert("serve.admit_p50_us", median(&admit_us));
    m.insert(
        "serve.queue_wait_p50_us",
        histogram_p50(&after, "serve.predict.queue_wait_us"),
    );
    m.insert(
        "serve.exec_p50_us",
        histogram_p50(&after, "serve.worker.exec_us"),
    );
    m.insert("serve.client_server_p50_gap_us", p50 * 1e3 - server_p50_us);
    m.insert("serve.predict_p95_ms", windowed(&open.samples, 95.0).0);
    m.insert("serve.predict_p99_ms", windowed(&open.samples, 99.0).0);
    m.insert("serve.batch_width_mean", widths.map_or(0.0, |h| h.mean()));
    m.insert(
        "serve.coalesced_share",
        stats.coalesced_predicts as f64 / stats.predicts_done.max(1) as f64,
    );
    m.insert(
        "serve.worker_busy_share",
        counted("serve.worker.busy_us") / (open.wall_s * 1e6 * workers),
    );
    m.insert("serve.ws_fresh_allocs_steady", allocs as f64);
    m.insert("serve.rejected", counted("serve.requests.rejected"));
    m.insert("serve.gen_late_p99_us", percentile(&late_us, 99.0));
    m.insert(
        "serve.retrain_p50_ms",
        histogram_p50(&after, "serve.train.latency_us") / 1e3,
    );
    m.insert("catalog.registry_publish_us", median(&open.publish_us));

    // Spans were on in the odd windows only; compare the two halves.
    let half = |on: bool| -> Vec<(f64, f64)> {
        open.samples
            .iter()
            .filter(|(due_s, _)| spans_on_at(*due_s) == on)
            .copied()
            .collect()
    };
    let (on, off) = (
        windowed(&half(true), 50.0).0,
        windowed(&half(false), 50.0).0,
    );
    m.insert("obs.trace_overhead_pct", (on - off) / off * 100.0);

    // Replays, after the traffic: the registry lookup every admission
    // makes, and the coalesced product a 16-wide batch runs.
    let d = &run.datasets[0];
    let lookups = 100_000;
    let t = Instant::now();
    for _ in 0..lookups {
        std::hint::black_box(run.client.registry().fetch(d.name).map_err(err("fetch"))?);
    }
    m.insert(
        "catalog.registry_fetch_ns",
        t.elapsed().as_secs_f64() * 1e9 / f64::from(lookups),
    );
    let (rows, cols) = d.table.target_shape();
    let x = DenseMatrix::filled(cols, BURST, 0.5);
    let mut y = DenseMatrix::zeros(rows, BURST);
    let mut ws = Workspace::new();
    let colstable_ms = replay_ms(20, || {
        d.table
            .lmm_colstable_into(&x, &mut y, &mut ws)
            .map_err(err("lmm_colstable_into"))
    })?;
    m.insert("factorize.lmm_colstable_x16_ms", colstable_ms);

    out.layer_shares = vec![
        (
            "serve: admission (submit_predict) over client p50".to_owned(),
            median(&admit_us) / (p50 * 1e3),
        ),
        (
            "serve: queue wait p50 over client p50".to_owned(),
            out.metrics["serve.queue_wait_p50_us"] / (p50 * 1e3),
        ),
        (
            "serve: worker execution p50 over client p50".to_owned(),
            out.metrics["serve.exec_p50_us"] / (p50 * 1e3),
        ),
    ];
    out.spans = tr.into_spans();
    Ok(out)
}
