//! Fault-grid benchmark for the FedAvg orchestrator.
//!
//! Writes `BENCH_federated.json` (in the current directory — run from
//! the workspace root) with rounds-to-converge and communication
//! overhead for a seeded drop × straggler fault grid, all against the
//! fault-free baseline on the same data. Every cell is deterministic:
//! the whole fault schedule hangs off the plan seed, so the JSON is
//! stable across reruns and comparable across PRs.
//!
//! `--quick` runs only the acceptance cell (20% drops, 10% stragglers,
//! quorum 2/3) and exits non-zero unless it converges within 1% of the
//! fault-free loss — the CI fault-injection smoke test.

use amalur_bench::write_report;
use amalur_federated::hfl::{train_fedavg_with_transport, PartySamples};
use amalur_federated::{FaultPlan, FaultyTransport, HflConfig};
use amalur_matrix::DenseMatrix;
use amalur_obs::{MetricsRegistry, MetricsSnapshot};
use rand::{Rng, SeedableRng};
use serde::Serialize;

const SEED: u64 = 0xFED5;
const ROUNDS: usize = 200;

/// Splits a common linear dataset across `k` equally sized silos.
fn silos(k: usize, rows_each: usize, seed: u64) -> Vec<PartySamples> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let truth = [2.0, -1.0, 0.5];
    (0..k)
        .map(|i| {
            let x = DenseMatrix::random_uniform(rows_each, 3, -1.0, 1.0, &mut rng);
            let y: Vec<f64> = (0..rows_each)
                .map(|r| {
                    (0..3).map(|c| x.get(r, c) * truth[c]).sum::<f64>() + rng.gen_range(-0.01..0.01)
                })
                .collect();
            PartySamples {
                name: format!("silo{i}"),
                x,
                y: DenseMatrix::column_vector(&y),
            }
        })
        .collect()
}

fn config() -> HflConfig {
    HflConfig {
        rounds: ROUNDS,
        learning_rate: 0.3,
        ..HflConfig::default()
    }
}

/// One grid cell of `BENCH_federated.json`.
#[derive(Default, Serialize)]
struct Cell {
    drop: f64,
    straggler: f64,
    converged: bool,
    rounds_to_converge: Option<usize>,
    final_loss: f64,
    wire_bytes: usize,
    retries: usize,
    rounds_degraded: usize,
    rounds_skipped: usize,
    quorum_lost: bool,
}

/// `BENCH_federated.json`.
#[derive(Serialize)]
struct Report {
    schema: &'static str,
    workload: Workload,
    baseline: Baseline,
    grid: Vec<Cell>,
    /// The acceptance cell's registry, in the serving bench's metrics
    /// format (`amalur-obs/v1`); `null` when the grid lacks that cell.
    metrics: Option<MetricsSnapshot>,
}

#[derive(Serialize)]
struct Workload {
    silos: usize,
    rows_each: usize,
    features: usize,
    rounds: usize,
    quorum: &'static str,
    seed: u64,
}

#[derive(Serialize)]
struct Baseline {
    final_loss: f64,
    wire_bytes: usize,
}

/// First round whose loss is within 1% of the fault-free final loss.
fn rounds_to(losses: &[f64], target: f64) -> Option<usize> {
    losses.iter().position(|&l| l <= target * 1.01)
}

/// Runs one grid cell; the acceptance cell also returns its metrics.
fn run_cell(
    parties: &[PartySamples],
    drop: f64,
    straggler: f64,
    clean_final: f64,
) -> (Cell, Option<MetricsSnapshot>) {
    let mut t = FaultyTransport::new(FaultPlan::grid(SEED, drop, straggler)).expect("valid grid");
    match train_fedavg_with_transport(parties, &config(), &mut t) {
        Ok(r) => {
            let final_loss = r.loss_history.last().copied().unwrap_or(f64::NAN);
            // The acceptance cell doubles as the metrics-format probe:
            // bridge CommStats + the virtual-time round histogram into
            // a registry and embed its snapshot.
            let metrics =
                ((drop - 0.2).abs() < 1e-9 && (straggler - 0.1).abs() < 1e-9).then(|| {
                    let reg = MetricsRegistry::new();
                    r.to_metrics(&reg);
                    reg.snapshot()
                });
            let cell = Cell {
                drop,
                straggler,
                converged: final_loss <= clean_final * 1.01,
                rounds_to_converge: rounds_to(&r.loss_history, clean_final),
                final_loss,
                wire_bytes: r.comm.total_bytes(),
                retries: r.comm.retries,
                rounds_degraded: r.comm.rounds_degraded,
                rounds_skipped: r.comm.rounds_skipped,
                quorum_lost: false,
            };
            (cell, metrics)
        }
        Err(e) => {
            eprintln!("cell drop={drop} straggler={straggler}: {e}");
            let cell = Cell {
                drop,
                straggler,
                final_loss: f64::NAN,
                quorum_lost: true,
                ..Cell::default()
            };
            (cell, None)
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let parties = silos(3, 30, 1);

    let mut clean_t = FaultyTransport::new(FaultPlan::reliable(SEED)).expect("valid plan");
    let clean =
        train_fedavg_with_transport(&parties, &config(), &mut clean_t).expect("fault-free run");
    let clean_final = *clean.loss_history.last().expect("non-empty history");
    println!(
        "baseline (no faults): final loss {clean_final:.6}, {} bytes",
        clean.comm.total_bytes()
    );

    let grid: Vec<(f64, f64)> = if quick {
        vec![(0.2, 0.1)]
    } else {
        let mut g = Vec::new();
        for &drop in &[0.0, 0.1, 0.2, 0.3] {
            for &straggler in &[0.0, 0.1, 0.2] {
                g.push((drop, straggler));
            }
        }
        g
    };

    let (cells, metrics): (Vec<Cell>, Vec<Option<MetricsSnapshot>>) = grid
        .iter()
        .map(|&(d, s)| run_cell(&parties, d, s, clean_final))
        .unzip();
    for c in &cells {
        println!(
            "drop={:.1} straggler={:.1}: loss {:.6} ({}), rounds-to-converge {}, \
             {} bytes ({:+.1}% vs clean), retries {}, degraded {}, skipped {}",
            c.drop,
            c.straggler,
            c.final_loss,
            if c.quorum_lost {
                "quorum lost"
            } else if c.converged {
                "converged"
            } else {
                "NOT within 1%"
            },
            c.rounds_to_converge
                .map_or("never".to_owned(), |r| r.to_string()),
            c.wire_bytes,
            100.0 * (c.wire_bytes as f64 - clean.comm.total_bytes() as f64)
                / clean.comm.total_bytes() as f64,
            c.retries,
            c.rounds_degraded,
            c.rounds_skipped,
        );
    }

    let report = Report {
        schema: "amalur-bench-federated/v1",
        workload: Workload {
            silos: 3,
            rows_each: 30,
            features: 3,
            rounds: ROUNDS,
            quorum: "2/3",
            seed: SEED,
        },
        baseline: Baseline {
            final_loss: clean_final,
            wire_bytes: clean.comm.total_bytes(),
        },
        grid: cells,
        metrics: metrics.into_iter().flatten().next(),
    };
    write_report("BENCH_federated.json", &report);

    if quick {
        let cell = &report.grid[0];
        assert!(
            cell.converged,
            "acceptance: 20% drop / 10% straggler with quorum 2/3 must converge within 1% \
             of the fault-free loss (got {} vs {clean_final})",
            cell.final_loss
        );
        println!("quick acceptance cell passed");
    }
}
