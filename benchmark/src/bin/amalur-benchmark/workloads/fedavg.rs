//! `fedavg_faulty`: horizontal federated training over an unreliable
//! network. Closed loop; the operation is one complete FedAvg run of a
//! fixed number of rounds under the seeded fault plan, checkpointed as it
//! goes. Every repetition must reproduce the first one's communication
//! counts exactly, so a change to the comms can be claimed as a count.

use crate::harness::{
    closed_loop, closed_loop_metrics, err, repeat_setup, replay_ms, spans_on, split_alternating,
    Outcome, RunConfig,
};
use crate::inputs::fed_parties;
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::trace::{durations_ms, Layer, Tracer};
use amalur_federated::faults::CrashWindow;
use amalur_federated::{
    train_fedavg, CommStats, FaultPlan, FaultyTransport, FedAvgOrchestrator, HflConfig, HflResult,
    PartySamples, QuorumPolicy,
};
use amalur_matrix::DenseMatrix;
use std::time::Instant;

const PARTIES: usize = 8;
const ROWS_PER_PARTY: usize = 20_000;
const FEATURES: usize = 32;
const ROUNDS: usize = 200;
const CHECKPOINT_EVERY: usize = 50;
/// A run must end within this share of the fault-free run's final loss.
const LOSS_SLACK: f64 = 0.01;

struct Inputs {
    parties: Vec<PartySamples>,
    config: HflConfig,
    plan: FaultPlan,
    /// Final loss of the same training on a reliable network.
    target_loss: f64,
}

fn setup(cfg: &RunConfig) -> Result<Inputs, String> {
    let rows = cfg.scale.rows(ROWS_PER_PARTY, 500);
    let parties: Vec<PartySamples> = fed_parties(cfg.seed, PARTIES, rows, FEATURES)
        .into_iter()
        .enumerate()
        .map(|(i, p)| -> Result<PartySamples, String> {
            Ok(PartySamples {
                name: format!("party_{i}"),
                x: DenseMatrix::from_vec(rows, FEATURES, p.x).map_err(err("party features"))?,
                y: DenseMatrix::column_vector(&p.y),
            })
        })
        .collect::<Result<_, _>>()?;
    let mut rng = Rng::fork(cfg.seed, "fedavg_config");
    let config = HflConfig {
        rounds: ROUNDS,
        seed: rng.next_u64(),
        // Half the parties suffice and five thin rounds in a row are
        // tolerated, so no seed loses quorum under the plan below.
        quorum: QuorumPolicy {
            min_fraction: 0.5,
            patience: 5,
        },
        ..HflConfig::default()
    };
    let plan = FaultPlan {
        drop_prob: 0.2,
        straggler_prob: 0.1,
        duplicate_prob: 0.05,
        corrupt_prob: 0.02,
        stale_prob: 0.02,
        crashes: vec![CrashWindow {
            party: rng.below(PARTIES),
            from_round: ROUNDS / 5,
            until_round: ROUNDS / 5 + ROUNDS / 8,
        }],
        ..FaultPlan::reliable(rng.next_u64())
    };
    let fault_free = train_fedavg(&parties, &config).map_err(err("fault-free run"))?;
    let target_loss = fault_free
        .loss_history
        .last()
        .copied()
        .ok_or_else(|| "fault-free run recorded no loss".to_owned())?;
    Ok(Inputs {
        parties,
        config,
        plan,
        target_loss,
    })
}

/// One training run: step by step, a checkpoint serialized every
/// [`CHECKPOINT_EVERY`] rounds.
fn train(inp: &Inputs, run: u32, tr: &mut Tracer) -> Result<HflResult, String> {
    let mut transport = FaultyTransport::new(inp.plan.clone()).map_err(err("FaultyTransport"))?;
    let mut orchestrator = FedAvgOrchestrator::new(&inp.parties, &inp.config, &mut transport)
        .map_err(err("FedAvgOrchestrator::new"))?;
    while !orchestrator.is_done() {
        tr.span(Layer::Federated, "step", run, |_| orchestrator.step())
            .map_err(err("step"))?;
        if orchestrator.round() % CHECKPOINT_EVERY == 0 {
            let json = tr
                .span(Layer::Federated, "checkpoint", run, |_| {
                    orchestrator.checkpoint().to_json()
                })
                .map_err(err("checkpoint"))?;
            std::hint::black_box(json);
        }
    }
    Ok(orchestrator.finish())
}

/// First round whose loss is within [`LOSS_SLACK`] of the target.
fn rounds_to_target(result: &HflResult, target: f64) -> Option<usize> {
    result
        .loss_history
        .iter()
        .position(|&l| l <= target * (1.0 + LOSS_SLACK))
}

fn final_loss(result: &HflResult) -> f64 {
    result.loss_history.last().copied().unwrap_or(f64::NAN)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inp, setup_s) = repeat_setup(|| setup(cfg))?;

    let mut tr = Tracer::new(cfg.trace);
    let mut first: Option<(CommStats, HflResult)> = None;
    let times = closed_loop(cfg.seconds, 4, |i| {
        tr.set_on(cfg.trace && spans_on(i));
        let t = Instant::now();
        let result = train(&inp, i, &mut tr)?;
        let secs = t.elapsed().as_secs_f64();
        out.attempted += 1;
        let loss = final_loss(&result);
        out.gate(loss <= inp.target_loss * (1.0 + LOSS_SLACK), || {
            format!(
                "run {i}: final loss {loss} not within 1 % of fault-free {}",
                inp.target_loss
            )
        });
        match &first {
            // Wall time spent in crypto is the one field that is a clock.
            Some((comm, _)) => out.gate(
                CommStats {
                    crypto_time: comm.crypto_time,
                    ..result.comm
                } == *comm,
                || format!("run {i}: communication counts differ from run 0 on the same seed"),
            ),
            None => first = Some((result.comm, result)),
        }
        Ok(secs)
    })?;
    let (comm, result) = first.ok_or_else(|| "no run completed".to_owned())?;
    let to_target = rounds_to_target(&result, inp.target_loss);
    out.gate(to_target.is_some(), || {
        "the target loss was never reached".to_owned()
    });

    if !cfg.trace {
        closed_loop_metrics(&times, 1.0, &mut out);
        out.metrics.insert("setup_s", setup_s);
        return Ok(out);
    }

    let (_, traced, overhead_pct) = split_alternating(&times);
    let step_ms = durations_ms(tr.spans(), "step");
    let m = &mut out.metrics;
    m.insert("federated.step_p50_ms", median(&step_ms));
    m.insert("federated.step_p95_ms", percentile(&step_ms, 95.0));
    m.insert(
        "federated.checkpoint_ms",
        median(&durations_ms(tr.spans(), "checkpoint")),
    );
    m.insert("federated.retries", comm.retries as f64);
    m.insert("federated.drops", comm.drops as f64);
    m.insert("federated.timeouts", comm.timeouts as f64);
    m.insert("federated.rounds_degraded", comm.rounds_degraded as f64);
    m.insert("federated.rounds_skipped", comm.rounds_skipped as f64);
    m.insert(
        "federated.wire_bytes_per_round",
        comm.total_bytes() as f64 / ROUNDS as f64,
    );
    m.insert("federated.virtual_s", result.round_us.sum() as f64 / 1e6);
    m.insert("federated.wire_mb", comm.total_bytes() as f64 / 1e6);
    m.insert(
        "federated.rounds_to_target",
        to_target.unwrap_or(ROUNDS) as f64,
    );
    m.insert("obs.trace_overhead_pct", overhead_pct);

    // Replay: the two dense products a party-round is made of.
    let x = &inp.parties[0].x;
    let theta = DenseMatrix::filled(FEATURES, 1, 0.5);
    let resid = DenseMatrix::filled(x.rows(), 1, 0.25);
    let gemv = replay_ms(20, || x.matmul(&theta).map(drop).map_err(err("matmul")))?;
    let gemv_t = replay_ms(20, || {
        x.transpose_matmul(&resid)
            .map(drop)
            .map_err(err("transpose_matmul"))
    })?;
    m.insert("matrix.gemv_ms", gemv);
    m.insert(
        "matrix.gemv_gb_per_s",
        8.0 * (x.rows() * FEATURES) as f64 / (gemv * 1e-3) / 1e9,
    );

    // A round computes the loss on every party (one product each) and a
    // local step on every party that is reached (two more).
    let run_ms = median(&traced) * 1e3;
    let kernels_ms = (ROUNDS * PARTIES) as f64 * (2.0 * gemv + gemv_t);
    out.layer_shares = vec![
        (
            "federated (step spans)".to_owned(),
            step_ms.iter().sum::<f64>() / traced.len() as f64 / run_ms,
        ),
        (
            "of which matrix (replayed matmul, transpose_matmul; upper bound)".to_owned(),
            kernels_ms / run_ms,
        ),
    ];
    out.samples.insert("runs_traced", traced.len());
    out.spans = tr.into_spans();
    Ok(out)
}
