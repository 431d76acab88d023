//! **Serving load**: throughput/latency characterization and the CI
//! smoke gate for the `amalur-serve` concurrent serving layer.
//!
//! Boots a [`Server`] over catalog-registered factorized datasets, then
//! unleashes a fleet of synthetic client threads issuing blocking
//! predict requests (with an occasional retrain mixed in). Reports
//! sustained throughput and p50/p95/p99 predict latency, plus how much
//! work the workers actually coalesced out of their backlog, into
//! `BENCH_serving.json`.
//!
//! The `--quick` form is the CI gate; it fails (non-zero exit) when
//!
//! * any request is rejected under nominal load (the admission queue is
//!   sized to absorb the whole fleet, so a rejection means lost
//!   capacity, not overload);
//! * a prediction — one or three columns wide, served alone or
//!   coalesced — is not *bit-identical* to its columns' single-column
//!   references (the column-stable GEMM contract);
//! * p99 predict latency blows past a deliberately generous floor —
//!   a smoke detector for pathological queueing, not a perf target.
//!
//! Independently of `--quick`, the client-side percentiles are
//! cross-checked against the server's own `serve.predict.latency_us`
//! histogram (from [`ServerHandle::metrics`]): both views time the same
//! requests, so they must agree within the histogram's bucket
//! resolution plus client-side submit/wake-up overhead. Divergence
//! means the metrics layer is lying and fails the bench. The full
//! registry dump is embedded in `BENCH_serving.json` under `"metrics"`.
//!
//! Run with: `cargo run --release -p amalur-bench --bin serving_load`
//! (`--quick` for the CI smoke; `--clients N`, `--requests N`,
//! `--workers N` to reshape the fleet).

use amalur_catalog::DatasetRegistry;
use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::FactorizedTable;
use amalur_matrix::{DenseMatrix, Workspace};
use amalur_ml::LinRegConfig;
use amalur_obs::Histogram;
use amalur_serve::{
    HistogramSnapshot, PredictRequest, Server, ServerConfig, ServerHandle, TrainRequest,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal-load p99 ceiling for the `--quick` gate. Generous on
/// purpose: single-core CI boxes share the machine with the build.
const QUICK_P99_CEILING: Duration = Duration::from_millis(500);

/// One client in this many opens with a retrain, keeping the train
/// path exercised without dominating the predict latency distribution.
const TRAIN_EVERY: u64 = 25;

struct Args {
    quick: bool,
    clients: usize,
    requests_per_client: usize,
    workers: usize,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let flag = |name: &str| argv.iter().any(|a| a == name);
    let opt = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
    };
    let quick = flag("--quick");
    Args {
        quick,
        // Full mode: a thousand-client fleet; quick keeps CI snappy.
        clients: opt("--clients").unwrap_or(if quick { 64 } else { 1000 }),
        requests_per_client: opt("--requests").unwrap_or(if quick { 8 } else { 4 }),
        workers: opt("--workers").unwrap_or(2),
    }
}

fn dataset(seed: u64) -> FactorizedTable {
    let spec = TwoSourceSpec {
        rows_s1: 2000,
        cols_s1: 3,
        rows_s2: 400,
        cols_s2: 40,
        seed,
        ..TwoSourceSpec::default()
    };
    let (md, data) = generate_two_source(&spec).expect("valid spec");
    FactorizedTable::new(md, data).expect("valid factorized table")
}

fn feature_col(c_t: usize, tag: u64) -> DenseMatrix {
    let vals: Vec<f64> = (0..c_t)
        .map(|i| ((i as f64) * 0.61 + tag as f64 * 0.937).cos())
        .collect();
    DenseMatrix::from_vec(c_t, 1, vals).expect("column vector")
}

/// A `c_t × tags.len()` request whose column `j` is `feature_col(tags[j])`.
fn feature_cols(c_t: usize, tags: &[u64]) -> DenseMatrix {
    tags[1..].iter().fold(feature_col(c_t, tags[0]), |m, &t| {
        m.hstack(&feature_col(c_t, t)).expect("equal heights")
    })
}

/// One synthetic client: a stream of blocking predicts with a periodic
/// retrain, returning predict latencies in microseconds.
fn run_client(
    handle: &ServerHandle,
    dataset_name: &str,
    c_t: usize,
    r_t: usize,
    client: u64,
    requests: usize,
) -> (Vec<u64>, u64, u64) {
    let mut latencies = Vec::with_capacity(requests);
    let mut rejected = 0u64;
    let mut trains = 0u64;
    for r in 0..requests as u64 {
        let tag = client * 10_000 + r;
        if r == 0 && client.is_multiple_of(TRAIN_EVERY) {
            let req = TrainRequest {
                dataset: dataset_name.to_owned(),
                version: None,
                labels: DenseMatrix::from_vec(r_t, 1, (0..r_t).map(|i| (i % 5) as f64).collect())
                    .expect("label column"),
                config: LinRegConfig {
                    epochs: 5,
                    learning_rate: 1e-4,
                    ..LinRegConfig::default()
                },
            };
            match handle.train(req) {
                Ok(_) => trains += 1,
                Err(amalur_serve::ServeError::Overloaded { .. }) => rejected += 1,
                Err(e) => panic!("train failed: {e}"),
            }
            continue;
        }
        let req = PredictRequest {
            dataset: dataset_name.to_owned(),
            version: None,
            features: feature_col(c_t, tag),
        };
        let start = Instant::now();
        match handle.predict(req) {
            Ok(_) => latencies.push(start.elapsed().as_micros() as u64),
            Err(amalur_serve::ServeError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("predict failed: {e}"),
        }
    }
    (latencies, rejected, trains)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Client-side wall clocks start before `submit` and stop after the
/// ticket wake-up; the server histogram times admission→reply. The gap
/// is submit bookkeeping plus thread wake-up latency, bounded here.
const CROSS_CHECK_SLOP_US: f64 = 500.0;

/// Checks that client-observed percentiles agree with the server's
/// `serve.predict.latency_us` histogram. Both sides saw exactly the
/// same requests, so each client percentile must land inside the
/// server's bucket-resolution quantile band, widened by one extra
/// [`Histogram::RESOLUTION`] factor per side (the client sample and
/// the bucket edges quantize independently) plus absolute slop for
/// the submit/wake-up overhead only the client measures.
fn percentile_divergences(client_sorted: &[u64], server: &HistogramSnapshot) -> Vec<String> {
    let mut out = Vec::new();
    if server.count() != client_sorted.len() as u64 {
        out.push(format!(
            "server histogram holds {} samples, clients measured {}",
            server.count(),
            client_sorted.len()
        ));
        return out;
    }
    let res = Histogram::RESOLUTION;
    for (p, name) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let client = percentile(client_sorted, p) as f64;
        let hi = server.quantile(p) as f64 * res * res + CROSS_CHECK_SLOP_US;
        let lo = (server.quantile_lower(p) as f64 / (res * res) - CROSS_CHECK_SLOP_US).max(0.0);
        if client < lo || client > hi {
            out.push(format!(
                "{name}: client {client:.0}µs outside server band [{lo:.0}, {hi:.0}]µs \
                 (server bucket [{}, {}]µs)",
                server.quantile_lower(p),
                server.quantile(p)
            ));
        }
    }
    out
}

/// Submits one- and three-column probes together, so the workers find
/// them queued and coalesce them, then the three-column probes again one at a time,
/// each alone in its batch, and checks every column of every answer
/// bit-for-bit against a locally computed single-column `lmm_into` —
/// whatever a request's width and company, the bits must not move.
fn check_batched_equivalence(
    handle: &ServerHandle,
    table: &Arc<FactorizedTable>,
    dataset_name: &str,
) -> (bool, u64) {
    let (r_t, c_t) = table.target_shape();
    let submit = |tags: &Vec<u64>| {
        handle
            .submit_predict(PredictRequest {
                dataset: dataset_name.to_owned(),
                version: None,
                features: feature_cols(c_t, tags),
            })
            .expect("admission under nominal load")
    };
    let wide: Vec<Vec<u64>> = (0..4)
        .map(|i| (0..3).map(|j| 778_000 + 3 * i + j).collect())
        .collect();
    let together: Vec<Vec<u64>> = (0..12)
        .map(|i| vec![777_000 + i])
        .chain(wide.iter().cloned())
        .collect();
    let tickets: Vec<_> = together.iter().map(submit).collect();
    let mut replies: Vec<_> = together
        .iter()
        .zip(tickets)
        .map(|(tags, t)| (tags, t.wait().expect("predict during equivalence check")))
        .collect();
    for tags in &wide {
        let alone = submit(tags)
            .wait()
            .expect("solo predict during equivalence check");
        replies.push((tags, alone));
    }

    let mut ws = Workspace::new();
    let mut reference = DenseMatrix::zeros(r_t, 1);
    let mut coalesced = 0u64;
    let mut ok = true;
    for (tags, resp) in &replies {
        coalesced += u64::from(resp.batched_with > 1);
        for (j, &tag) in tags.iter().enumerate() {
            table
                .lmm_into(&feature_col(c_t, tag), &mut reference, &mut ws)
                .expect("reference LMM");
            ok &= (0..r_t)
                .all(|i| resp.predictions.get(i, j).to_bits() == reference.get(i, 0).to_bits());
        }
    }
    (ok, coalesced)
}

fn main() {
    let args = parse_args();
    let total_requests = args.clients * args.requests_per_client;
    println!(
        "serving_load: {} clients × {} requests ({} total), {} workers{}",
        args.clients,
        args.requests_per_client,
        total_requests,
        args.workers,
        if args.quick { " [quick]" } else { "" }
    );

    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register("bench-main", dataset(101))
        .expect("register");
    registry
        .register("bench-side", dataset(202))
        .expect("register");
    let table = registry.fetch("bench-main").expect("fetch").data;
    let (r_t, c_t) = table.target_shape();

    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: args.workers,
            // Nominal load: every in-flight client fits in the queue.
            queue_capacity: (args.clients * 2).max(1024),
            max_batch_cols: 32,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();

    let wall = Instant::now();
    let mut clients = Vec::with_capacity(args.clients);
    for c in 0..args.clients as u64 {
        let handle = handle.clone();
        let requests = args.requests_per_client;
        clients.push(
            std::thread::Builder::new()
                .stack_size(256 * 1024) // a thousand clients: keep stacks lean
                .spawn(move || run_client(&handle, "bench-main", c_t, r_t, c, requests))
                .expect("spawn client"),
        );
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(total_requests);
    let mut rejected = 0u64;
    let mut trains = 0u64;
    for c in clients {
        let (lat, rej, trn) = c.join().expect("client thread");
        latencies.extend(lat);
        rejected += rej;
        trains += trn;
    }
    let elapsed = wall.elapsed();

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p95 = percentile(&latencies, 0.95);
    let p99 = percentile(&latencies, 0.99);
    let throughput = total_requests as f64 / elapsed.as_secs_f64();

    // Cross-check before the equivalence probes add more samples to the
    // server histogram: at this point both views cover the same set.
    let fleet_snapshot = handle.metrics();
    let divergences = match fleet_snapshot.histogram("serve.predict.latency_us") {
        Some(h) => percentile_divergences(&latencies, h),
        None => vec!["serve.predict.latency_us missing from server metrics".into()],
    };

    let (equiv_ok, equiv_coalesced) = check_batched_equivalence(&handle, &table, "bench-main");
    let stats = handle.stats();
    let metrics = handle.metrics();
    server.shutdown();

    let mean_batch = if stats.predict_batches > 0 {
        stats.predicts_done as f64 / stats.predict_batches as f64
    } else {
        0.0
    };
    println!(
        "  {throughput:.0} req/s over {:.2}s | predict latency µs: p50={p50} p95={p95} p99={p99}",
        elapsed.as_secs_f64()
    );
    println!(
        "  batches={} coalesced={} (mean width {mean_batch:.2}) trains={trains} rejected={rejected} equivalence={}",
        stats.predict_batches,
        stats.coalesced_predicts,
        if equiv_ok { "ok" } else { "VIOLATED" }
    );

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"amalur-bench-serving/v1\",\n");
    json.push_str(&format!(
        "  \"config\": {{ \"clients\": {}, \"requests_per_client\": {}, \"workers\": {}, \"quick\": {} }},\n",
        args.clients, args.requests_per_client, args.workers, args.quick
    ));
    json.push_str(&format!(
        "  \"throughput_req_per_s\": {throughput:.1},\n  \"elapsed_s\": {:.3},\n",
        elapsed.as_secs_f64()
    ));
    json.push_str(&format!(
        "  \"predict_latency_us\": {{ \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"count\": {} }},\n",
        latencies.len()
    ));
    json.push_str(&format!(
        "  \"admission\": {{ \"accepted\": {}, \"rejected\": {} }},\n",
        stats.accepted, stats.rejected
    ));
    json.push_str(&format!(
        "  \"batching\": {{ \"predict_batches\": {}, \"coalesced_predicts\": {}, \"mean_batch_width\": {mean_batch:.3}, \"equivalence_probe_coalesced\": {equiv_coalesced} }},\n",
        stats.predict_batches, stats.coalesced_predicts
    ));
    json.push_str(&format!(
        "  \"trains_done\": {},\n  \"batched_equivalence_ok\": {equiv_ok},\n",
        stats.trains_done
    ));
    json.push_str(&format!(
        "  \"percentile_cross_check_ok\": {},\n",
        divergences.is_empty()
    ));
    json.push_str(&format!("  \"metrics\": {}\n}}\n", metrics.to_json(2)));
    std::fs::write("BENCH_serving.json", &json).expect("writable working directory");
    println!("wrote BENCH_serving.json");

    // The metrics layer lying about latency is a bug at any fleet size,
    // so the cross-check gates full runs too, not just --quick.
    let mut failures = Vec::new();
    for d in &divergences {
        failures.push(format!("client/server percentile divergence: {d}"));
    }
    if failures.is_empty() {
        println!("  client/server percentile cross-check: ok");
    }
    if args.quick {
        if rejected > 0 || stats.rejected > 0 {
            failures.push(format!(
                "{} requests rejected under nominal load",
                rejected.max(stats.rejected)
            ));
        }
        if !equiv_ok {
            failures.push("batched predictions diverged from unbatched bits".into());
        }
        if Duration::from_micros(p99) > QUICK_P99_CEILING {
            failures.push(format!(
                "p99 predict latency {p99}µs exceeds the {}ms smoke ceiling",
                QUICK_P99_CEILING.as_millis()
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!("serving_load FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    if args.quick {
        println!("serving_load --quick: all gates passed");
    }
}
