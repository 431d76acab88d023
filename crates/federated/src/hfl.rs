//! Horizontal federated learning: fault-tolerant FedAvg over the union
//! scenario.
//!
//! Example 4 / HFL: "data sources share feature columns but not data
//! samples". Every silo trains locally on its own rows; the orchestrator
//! averages the models weighted by sample counts. With one local epoch
//! and full participation the round is algebraically identical to a
//! centralized GD step on the union (the weighted average of per-silo
//! gradients *is* the union gradient), which the tests verify; more
//! local epochs trade accuracy per round for fewer communication
//! rounds. Updates can be noised with the Laplace mechanism before
//! leaving a silo (§V-B's differential privacy option).
//!
//! # Fault tolerance
//!
//! All messages ride on a [`Transport`]. Each round, per party, the
//! orchestrator runs one fault-aware exchange (see [`crate::transport`],
//! which owns the retry / backoff / deadline loop and its accounting):
//! the request is the model broadcast, serving it is the silo's local
//! training, and the reply is a round-tagged, checksummed [`Envelope`]
//! whose tag and checksum are the accept check. Corrupt and stale
//! replies are rejected and retried; duplicated deliveries are
//! deduplicated but *accounted* per copy (see [`CommStats`]). The round
//! aggregates as soon as the responders meet the [`QuorumPolicy`],
//! reweighting FedAvg by the responding sample counts; a round below
//! quorum leaves the model untouched, and after `patience` consecutive
//! such rounds the run returns [`FederatedError::QuorumLost`] instead
//! of hanging.
//!
//! [`FedAvgOrchestrator`] exposes the round loop step-by-step so runs
//! can be checkpointed ([`Checkpoint`]) and resumed bit-identically.
//!
//! # What a round reads
//!
//! A silo's matrix is far larger than cache, so a round costs what it
//! streams. Each round makes **one pass per silo** at the round's global
//! model `θ`, through [`DenseMatrix::gradient_pass_into`]: row by row it
//! forms the residual `xᵀθ − y`, folds its square into the union loss
//! and accumulates the silo's gradient `Xᵀ(Xθ − y)`. The loss is the
//! round's history entry, known before any party is contacted — a
//! non-finite one ends the run with a typed error instead of training
//! on through a diverged model. The gradient is kept (one `d`-vector per
//! party) because a silo's local training starts from `θ`: its first
//! epoch is `θ − lr/n · gradient`, with no second look at the data.
//! Further local epochs are one pass each, run only when a request
//! actually reaches the silo, and the resulting update is kept for the
//! rest of the party's exchange, so an attempt the wire forces to be
//! repeated replays it instead of retraining. Differential-privacy noise
//! is *not* part of what is kept: every served attempt draws fresh noise
//! onto its own copy, exactly as if the silo had retrained, so the RNG
//! cursor, every checkpoint and every [`CommStats`] field are those of a
//! run that recomputes everything. With one local epoch a run of `R`
//! rounds over `K` silos makes `R·K` passes whatever the fault plan
//! does; the kernel's outputs are bit-identical to the separate products
//! (`X·θ`, then `Xᵀ·r`), which survive as the test-only reference the
//! differential tests compare whole runs against.

use crate::checkpoint::Checkpoint;
use crate::protocol::CommStats;
use crate::transport::{exchange, CursorRng, Envelope, ReliableTransport, Request, Transport};
pub use crate::transport::{RetryPolicy, RoundEvent, RoundEventKind};
use crate::{FederatedError, Result};
use amalur_crypto::dp::LaplaceMechanism;
use amalur_matrix::DenseMatrix;
use amalur_obs::{span, Histogram, HistogramSnapshot, MetricsRegistry, VirtualClock};

/// One silo's local samples (aligned schemas across silos).
#[derive(Debug, Clone)]
pub struct PartySamples {
    /// Silo name.
    pub name: String,
    /// Local feature matrix (`rows × d`, same `d` for every silo).
    pub x: DenseMatrix,
    /// Local labels (`rows × 1`).
    pub y: DenseMatrix,
}

/// When a round may proceed without everyone, and when to give up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumPolicy {
    /// Minimum responding fraction of parties for a round to aggregate
    /// (e.g. `2.0 / 3.0`); at least one responder is always required.
    pub min_fraction: f64,
    /// Consecutive below-quorum rounds tolerated before the run is
    /// abandoned with [`FederatedError::QuorumLost`].
    pub patience: usize,
}

impl Default for QuorumPolicy {
    fn default() -> Self {
        Self {
            min_fraction: 2.0 / 3.0,
            patience: 3,
        }
    }
}

impl QuorumPolicy {
    /// Responders required out of `n_parties`.
    pub fn needed(&self, n_parties: usize) -> usize {
        ((self.min_fraction * n_parties as f64).ceil() as usize).clamp(1, n_parties)
    }
}

/// Configuration for [`train_fedavg`].
#[derive(Debug, Clone)]
pub struct HflConfig {
    /// Communication rounds.
    pub rounds: usize,
    /// Local gradient steps per round.
    pub local_epochs: usize,
    /// Learning rate for the local steps.
    pub learning_rate: f64,
    /// Optional differential privacy on the model deltas leaving a silo:
    /// `(sensitivity, epsilon)`.
    pub dp: Option<(f64, f64)>,
    /// RNG seed (DP noise, backoff jitter).
    pub seed: u64,
    /// Retry/timeout/backoff policy.
    pub retry: RetryPolicy,
    /// Partial-aggregation quorum policy.
    pub quorum: QuorumPolicy,
}

impl Default for HflConfig {
    fn default() -> Self {
        Self {
            rounds: 50,
            local_epochs: 1,
            learning_rate: 0.1,
            dp: None,
            seed: 42,
            retry: RetryPolicy::default(),
            quorum: QuorumPolicy::default(),
        }
    }
}

/// The trained global model.
#[derive(Debug, Clone)]
pub struct HflResult {
    /// Global coefficient vector (`d × 1`).
    pub global: DenseMatrix,
    /// Per-round global training loss over the union.
    pub loss_history: Vec<f64>,
    /// Communication accounting.
    pub comm: CommStats,
    /// Per-round timeline: deadlines, retries, backoffs and quorum
    /// outcomes, in execution order. Observability only — NOT part of a
    /// [`Checkpoint`], so a resumed run's timeline covers only the
    /// rounds since the resume (model/loss/comm replay is unaffected).
    pub timeline: Vec<RoundEvent>,
    /// Distribution of virtual round durations (µs; a round's duration
    /// is its slowest party's virtual elapsed time), recorded through a
    /// [`VirtualClock`]-driven span so seeded runs stay deterministic.
    /// Same checkpoint caveat as [`Self::timeline`].
    pub round_us: HistogramSnapshot,
}

impl HflResult {
    /// Bridges this run into a metrics registry:
    /// [`CommStats::to_metrics`] plus the virtual round-duration
    /// histogram under `federated.round.virtual_us` — so federated
    /// bench bins emit the same `amalur-obs/v1` dump as the serving
    /// layer.
    pub fn to_metrics(&self, reg: &MetricsRegistry) {
        self.comm.to_metrics(reg);
        reg.histogram("federated.round.virtual_us")
            .merge_snapshot(&self.round_us);
    }
}

/// The fault-tolerant FedAvg round loop, exposed step-by-step so runs
/// can be checkpointed and resumed (see the module docs).
pub struct FedAvgOrchestrator<'a, T: Transport> {
    parties: &'a [PartySamples],
    config: &'a HflConfig,
    transport: &'a mut T,
    mechanism: Option<LaplaceMechanism>,
    rng: CursorRng,
    global: DenseMatrix,
    d: usize,
    round: usize,
    quorum_failures: usize,
    loss_history: Vec<f64>,
    comm: CommStats,
    // Observability state; excluded from Checkpoint (see HflResult).
    timeline: Vec<RoundEvent>,
    vclock: VirtualClock,
    round_us: Histogram,
    // Per-round scratch, rewritten by every `step` (derived state, not
    // in Checkpoint): party k's gradient at `global`, and the residual
    // buffer every pass writes through.
    grads: Vec<DenseMatrix>,
    resid: DenseMatrix,
}

impl<'a, T: Transport> FedAvgOrchestrator<'a, T> {
    /// Validates the inputs and builds a fresh run at round zero.
    ///
    /// # Errors
    /// * [`FederatedError::InvalidConfig`] for empty inputs, bad DP
    ///   params, zero feature dimensions or a degenerate retry policy.
    /// * [`FederatedError::Misaligned`] for inconsistent feature widths
    ///   or label shapes.
    pub fn new(
        parties: &'a [PartySamples],
        config: &'a HflConfig,
        transport: &'a mut T,
    ) -> Result<Self> {
        let d = validate(parties, config)?;
        let mechanism = match config.dp {
            Some((sensitivity, epsilon)) => Some(LaplaceMechanism::new(sensitivity, epsilon)?),
            None => None,
        };
        Ok(Self {
            parties,
            config,
            transport,
            mechanism,
            rng: CursorRng::new(config.seed),
            global: DenseMatrix::zeros(d, 1),
            d,
            round: 0,
            quorum_failures: 0,
            loss_history: Vec::with_capacity(config.rounds),
            comm: CommStats::default(),
            timeline: Vec::new(),
            vclock: VirtualClock::new(),
            round_us: Histogram::new(),
            grads: vec![DenseMatrix::zeros(d, 1); parties.len()],
            resid: DenseMatrix::zeros(0, 1),
        })
    }

    /// Rebuilds a run mid-flight from a [`Checkpoint`], restoring the
    /// model, the round counter, the accounting, and the RNG cursor.
    /// Continuing produces bit-identical state to the uninterrupted
    /// run, provided `parties`, `config` and the transport's fault
    /// schedule are the ones the checkpoint was taken under.
    ///
    /// # Errors
    /// Validation errors as in [`Self::new`], plus
    /// [`FederatedError::Checkpoint`] when the checkpoint's shape does
    /// not match `parties`/`config`.
    pub fn resume(
        parties: &'a [PartySamples],
        config: &'a HflConfig,
        transport: &'a mut T,
        checkpoint: &Checkpoint,
    ) -> Result<Self> {
        let d = validate(parties, config)?;
        if checkpoint.global.len() != d {
            return Err(FederatedError::Checkpoint(format!(
                "checkpointed model has {} coefficients, parties have {d} features",
                checkpoint.global.len()
            )));
        }
        if checkpoint.round > config.rounds || checkpoint.loss_history.len() != checkpoint.round {
            return Err(FederatedError::Checkpoint(format!(
                "checkpoint at round {} with {} loss entries does not fit a {}-round run",
                checkpoint.round,
                checkpoint.loss_history.len(),
                config.rounds
            )));
        }
        let mechanism = match config.dp {
            Some((sensitivity, epsilon)) => Some(LaplaceMechanism::new(sensitivity, epsilon)?),
            None => None,
        };
        Ok(Self {
            parties,
            config,
            transport,
            mechanism,
            rng: CursorRng::restore(config.seed, checkpoint.rng_draws),
            global: DenseMatrix::column_vector(&checkpoint.global),
            d,
            round: checkpoint.round,
            quorum_failures: checkpoint.quorum_failures,
            loss_history: checkpoint.loss_history.clone(),
            comm: checkpoint.comm,
            timeline: Vec::new(),
            vclock: VirtualClock::new(),
            round_us: Histogram::new(),
            grads: vec![DenseMatrix::zeros(d, 1); parties.len()],
            resid: DenseMatrix::zeros(0, 1),
        })
    }

    /// The next round to execute.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether every configured round has run.
    pub fn is_done(&self) -> bool {
        self.round >= self.config.rounds
    }

    /// Freezes the current state (taken between rounds).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            round: self.round,
            global: self.global.as_slice().to_vec(),
            loss_history: self.loss_history.clone(),
            comm: self.comm,
            rng_draws: self.rng.draws(),
            quorum_failures: self.quorum_failures,
        }
    }

    /// Executes one communication round.
    ///
    /// # Errors
    /// * [`FederatedError::QuorumLost`] when quorum has been missed for
    ///   more consecutive rounds than the policy tolerates.
    /// * [`FederatedError::Protocol`] when every configured round has
    ///   already run, and [`FederatedError::Compute`] when the global
    ///   loss is not finite (the model has diverged); both are raised
    ///   before any party is contacted and leave the run — model, round
    ///   counter, history, accounting — as it was.
    /// * Compute errors from the local training steps.
    pub fn step(&mut self) -> Result<()> {
        if self.is_done() {
            return Err(FederatedError::Protocol(format!(
                "step() on a finished run: all {} rounds have run",
                self.config.rounds
            )));
        }
        let n_parties = self.parties.len();
        let needed = self.config.quorum.needed(n_parties);

        // The round's one pass per silo (see the module docs): the
        // global loss over the union before the round, for the history,
        // and every party's gradient at `global`, for its first epoch.
        let total_rows: usize = self.parties.iter().map(|p| p.x.rows()).sum();
        let mut loss = 0.0;
        for (p, grad) in self.parties.iter().zip(&mut self.grads) {
            let y = p.y.as_slice();
            let mut sq = 0.0;
            self.resid.resize_rows(p.x.rows());
            p.x.gradient_pass_into(
                &self.global,
                |l, z| {
                    let r = z - y[l];
                    sq += r * r;
                    r
                },
                &mut self.resid,
                grad,
            )?;
            loss += sq;
        }
        let loss = loss / (2.0 * total_rows as f64);
        if !loss.is_finite() {
            return Err(FederatedError::Compute(format!(
                "global loss is not finite at round {}",
                self.round
            )));
        }
        self.loss_history.push(loss);

        // Collect updates from whoever responds in time. The round's
        // virtual duration is its slowest party (parties run in
        // parallel in the modeled deployment).
        let mut responders: Vec<(usize, DenseMatrix)> = Vec::with_capacity(n_parties);
        let mut round_elapsed_ms: u64 = 0;
        for k in 0..n_parties {
            let (theta, elapsed_ms) = self.run_party_round(k)?;
            round_elapsed_ms = round_elapsed_ms.max(elapsed_ms);
            responders.extend(theta.map(|theta| (k, theta)));
        }
        {
            // Span over the virtual clock: deterministic for a given
            // seed + fault schedule, and recorded in the same histogram
            // vocabulary as the wall-clock serving spans.
            let _round_span = span(&self.vclock, &self.round_us);
            self.vclock.advance_ms(round_elapsed_ms);
        }
        let quorum_kind = if responders.len() >= n_parties {
            RoundEventKind::QuorumFull {
                responded: responders.len(),
            }
        } else if responders.len() >= needed {
            RoundEventKind::QuorumDegraded {
                responded: responders.len(),
                needed,
            }
        } else {
            RoundEventKind::QuorumSkipped {
                responded: responders.len(),
                needed,
            }
        };
        self.timeline.push(RoundEvent {
            round: self.round,
            party: None,
            at_ms: round_elapsed_ms,
            kind: quorum_kind,
        });

        if responders.len() < needed {
            self.comm.rounds_skipped += 1;
            self.quorum_failures += 1;
            if self.quorum_failures > self.config.quorum.patience {
                return Err(FederatedError::QuorumLost {
                    round: self.round,
                    responded: responders.len(),
                    needed,
                });
            }
        } else {
            if responders.len() < n_parties {
                self.comm.rounds_degraded += 1;
            }
            self.quorum_failures = 0;
            // FedAvg reweighted by the responding sample counts.
            let responding_rows: usize = responders
                .iter()
                .map(|&(k, _)| self.parties[k].x.rows())
                .sum();
            let mut aggregate = DenseMatrix::zeros(self.d, 1);
            for (k, theta) in &responders {
                let w = self.parties[*k].x.rows() as f64 / responding_rows as f64;
                aggregate.axpy_assign(w, theta)?;
            }
            self.global = aggregate;
        }
        self.round += 1;
        Ok(())
    }

    /// Finishes the run and hands back the result.
    pub fn finish(self) -> HflResult {
        HflResult {
            global: self.global,
            loss_history: self.loss_history,
            comm: self.comm,
            timeline: self.timeline,
            round_us: self.round_us.snapshot(),
        }
    }

    /// One party's full round as one fault-aware exchange: the request
    /// is the model broadcast, serving it is the silo's local training,
    /// the reply a sealed [`Envelope`]. Returns the accepted update (if
    /// any) and the virtual milliseconds the party consumed.
    ///
    /// The silo trains once, on the first request that reaches it; a
    /// later served attempt of the same exchange clones that update.
    /// Each attempt privatizes its own clone, so the DP stream advances
    /// per served attempt whether or not the training was replayed.
    fn run_party_round(&mut self, k: usize) -> Result<(Option<DenseMatrix>, u64)> {
        let round = self.round;
        let config = self.config;
        let p = &self.parties[k];
        let bytes = self.d * 8;
        let (global, mechanism, rng) = (&self.global, self.mechanism.as_ref(), &mut self.rng);
        let (grad, resid) = (&mut self.grads[k], &mut self.resid);
        let mut trained: Option<DenseMatrix> = None;
        let timeline = &mut self.timeline;
        let (reply, elapsed_ms) = exchange(
            &mut *self.transport,
            &mut self.comm,
            &config.retry,
            config.seed,
            Request {
                round,
                wire_round: round,
                party: k,
                bytes,
            },
            &mut || {
                let mut theta = match &trained {
                    Some(theta) => theta.clone(),
                    None => trained
                        .insert(local_update(p, global, config, grad, resid)?)
                        .clone(),
                };
                if let Some(m) = mechanism {
                    m.privatize(theta.as_mut_slice(), rng);
                }
                let env = Envelope::new(round, k, p.x.rows(), theta.into_vec());
                Ok((env, bytes))
            },
            // Accept: tag and integrity both check out.
            &|env: &Envelope| env.round == round && env.verify(),
            &mut |event| timeline.push(event),
        )?;
        Ok((
            reply.map(|env| DenseMatrix::column_vector(&env.payload)),
            elapsed_ms,
        ))
    }
}

/// The silo-side computation: `local_epochs` GD steps from the current
/// global model, before any privatization.
///
/// On entry `grad` is the silo's gradient at `global`, left there by the
/// round's loss pass — so the first epoch, which starts at `global`,
/// needs no pass over the data. Every further epoch is one fused pass at
/// the moving `theta`, which reuses `grad` (nothing reads the gradient
/// at `global` again this round) and `resid` as its outputs. Noise is
/// the caller's business because it is per served attempt, while this
/// result is shared by all attempts of the party's exchange.
fn local_update(
    p: &PartySamples,
    global: &DenseMatrix,
    config: &HflConfig,
    grad: &mut DenseMatrix,
    resid: &mut DenseMatrix,
) -> Result<DenseMatrix> {
    let step = -config.learning_rate / p.x.rows().max(1) as f64;
    let y = p.y.as_slice();
    let mut theta = global.clone();
    theta.axpy_assign(step, grad)?;
    for _ in 1..config.local_epochs {
        resid.resize_rows(p.x.rows());
        p.x.gradient_pass_into(&theta, |l, z| z - y[l], resid, grad)?;
        theta.axpy_assign(step, grad)?;
    }
    Ok(theta)
}

/// Shared input validation; returns the feature dimension `d`.
fn validate(parties: &[PartySamples], config: &HflConfig) -> Result<usize> {
    if parties.is_empty() || config.rounds == 0 || config.local_epochs == 0 {
        return Err(FederatedError::InvalidConfig(
            "need parties, rounds and local epochs".into(),
        ));
    }
    config.retry.validate()?;
    if !(0.0..=1.0).contains(&config.quorum.min_fraction) {
        return Err(FederatedError::InvalidConfig(format!(
            "quorum fraction {} is not in [0, 1]",
            config.quorum.min_fraction
        )));
    }
    let d = parties[0].x.cols();
    if d == 0 {
        return Err(FederatedError::Misaligned(
            "parties have zero feature columns".into(),
        ));
    }
    let total_rows: usize = parties.iter().map(|p| p.x.rows()).sum();
    if total_rows == 0 {
        return Err(FederatedError::InvalidConfig("no training rows".into()));
    }
    for p in parties {
        if p.x.cols() != d {
            return Err(FederatedError::Misaligned(format!(
                "silo {} has {} features, expected {d}",
                p.name,
                p.x.cols()
            )));
        }
        if p.y.rows() != p.x.rows() || p.y.cols() != 1 {
            return Err(FederatedError::Misaligned(format!(
                "silo {} labels are {}x{}",
                p.name,
                p.y.rows(),
                p.y.cols()
            )));
        }
    }
    Ok(d)
}

/// Runs FedAvg over the silos on a perfectly reliable in-process
/// network (the pre-fault-model behavior).
///
/// # Errors
/// * [`FederatedError::InvalidConfig`] for empty inputs or bad DP params.
/// * [`FederatedError::Misaligned`] for inconsistent feature widths or
///   label shapes.
pub fn train_fedavg(parties: &[PartySamples], config: &HflConfig) -> Result<HflResult> {
    let mut transport = ReliableTransport;
    train_fedavg_with_transport(parties, config, &mut transport)
}

/// Runs FedAvg over the silos on the given transport, with the full
/// retry/quorum machinery (see the module docs).
///
/// # Errors
/// Validation errors as in [`train_fedavg`], plus
/// [`FederatedError::QuorumLost`] when the quorum policy gives up.
pub fn train_fedavg_with_transport<T: Transport>(
    parties: &[PartySamples],
    config: &HflConfig,
    transport: &mut T,
) -> Result<HflResult> {
    let mut orchestrator = FedAvgOrchestrator::new(parties, config, transport)?;
    while !orchestrator.is_done() {
        orchestrator.step()?;
    }
    Ok(orchestrator.finish())
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Splits a common linear dataset across `k` silos.
    fn silos(
        k: usize,
        rows_each: usize,
        seed: u64,
    ) -> (Vec<PartySamples>, DenseMatrix, DenseMatrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let truth = [2.0, -1.0, 0.5];
        let mut parties = Vec::new();
        let mut all_x: Option<DenseMatrix> = None;
        let mut all_y: Vec<f64> = Vec::new();
        for i in 0..k {
            let x = DenseMatrix::random_uniform(rows_each, 3, -1.0, 1.0, &mut rng);
            let y: Vec<f64> = (0..rows_each)
                .map(|r| {
                    (0..3).map(|c| x.get(r, c) * truth[c]).sum::<f64>() + rng.gen_range(-0.01..0.01)
                })
                .collect();
            all_x = Some(match all_x {
                None => x.clone(),
                Some(prev) => prev.vstack(&x).unwrap(),
            });
            all_y.extend_from_slice(&y);
            parties.push(PartySamples {
                name: format!("silo{i}"),
                x,
                y: DenseMatrix::column_vector(&y),
            });
        }
        (parties, all_x.unwrap(), DenseMatrix::column_vector(&all_y))
    }

    #[test]
    fn timeline_is_deterministic_and_exports_to_metrics() {
        let (parties, _, _) = silos(3, 20, 5);
        let config = HflConfig {
            rounds: 8,
            ..HflConfig::default()
        };
        let run = |seed: u64| {
            let mut t =
                crate::FaultyTransport::new(crate::FaultPlan::grid(seed, 0.2, 0.1)).unwrap();
            train_fedavg_with_transport(&parties, &config, &mut t).unwrap()
        };
        let a = run(9);
        let b = run(9);
        // Instrumentation is part of the deterministic replay: same
        // seed + fault schedule → identical timeline and durations.
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.round_us, b.round_us);
        assert_ne!(a.timeline, run(10).timeline, "seed changes the timeline");

        // Exactly one quorum outcome per round, and the lossy grid
        // produced at least one retry/backoff pair.
        let quorums = a
            .timeline
            .iter()
            .filter(|e| {
                e.party.is_none()
                    && matches!(
                        e.kind,
                        RoundEventKind::QuorumFull { .. }
                            | RoundEventKind::QuorumDegraded { .. }
                            | RoundEventKind::QuorumSkipped { .. }
                    )
            })
            .count();
        assert_eq!(quorums, config.rounds);
        assert!(a
            .timeline
            .iter()
            .any(|e| matches!(e.kind, RoundEventKind::Retry { .. })));
        assert_eq!(a.round_us.count(), config.rounds as u64);

        // The registry bridge exposes comm counters and the round
        // histogram in the shared dump format.
        let reg = MetricsRegistry::new();
        a.to_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("federated.comm.retries"),
            Some(a.comm.retries as u64)
        );
        assert_eq!(
            snap.histogram("federated.round.virtual_us")
                .unwrap()
                .count(),
            config.rounds as u64
        );
        assert!(snap.to_json(0).contains("federated.comm.messages"));
    }

    /// Centralized GD on the union with the same update rule.
    fn centralized(x: &DenseMatrix, y: &DenseMatrix, steps: usize, lr: f64) -> DenseMatrix {
        let n = x.rows() as f64;
        let mut theta = DenseMatrix::zeros(x.cols(), 1);
        for _ in 0..steps {
            let resid = x.matmul(&theta).unwrap().sub(y).unwrap();
            let grad = x.transpose_matmul(&resid).unwrap();
            theta.axpy_assign(-lr / n, &grad).unwrap();
        }
        theta
    }

    #[test]
    fn single_local_epoch_equals_centralized_gd() {
        // Equal silo sizes → the weighted average of local steps is the
        // exact centralized step.
        let (parties, all_x, all_y) = silos(3, 40, 1);
        let config = HflConfig {
            rounds: 30,
            local_epochs: 1,
            learning_rate: 0.2,
            ..HflConfig::default()
        };
        let result = train_fedavg(&parties, &config).unwrap();
        let reference = centralized(&all_x, &all_y, 30, 0.2);
        assert!(
            result.global.approx_eq(&reference, 1e-9),
            "max diff {:?}",
            result.global.max_abs_diff(&reference)
        );
    }

    #[test]
    fn unequal_silos_still_converge() {
        let (mut parties, _, _) = silos(2, 60, 2);
        // Shrink the second silo to 10 rows.
        parties[1] = PartySamples {
            name: parties[1].name.clone(),
            x: parties[1].x.slice(0..10, 0..3).unwrap(),
            y: DenseMatrix::column_vector(&parties[1].y.col(0)[..10]),
        };
        let config = HflConfig {
            rounds: 200,
            local_epochs: 3,
            learning_rate: 0.2,
            ..HflConfig::default()
        };
        let result = train_fedavg(&parties, &config).unwrap();
        assert!((result.global.get(0, 0) - 2.0).abs() < 0.05);
        assert!((result.global.get(1, 0) + 1.0).abs() < 0.05);
        assert!(result.loss_history.first().unwrap() > result.loss_history.last().unwrap());
    }

    #[test]
    fn more_local_epochs_need_fewer_rounds() {
        let (parties, _, _) = silos(3, 40, 3);
        let loss_after = |local_epochs: usize| {
            let config = HflConfig {
                rounds: 10,
                local_epochs,
                learning_rate: 0.2,
                ..HflConfig::default()
            };
            *train_fedavg(&parties, &config)
                .unwrap()
                .loss_history
                .last()
                .unwrap()
        };
        assert!(loss_after(5) < loss_after(1));
    }

    #[test]
    fn dp_noise_perturbs_but_preserves_signal() {
        let (parties, _, _) = silos(3, 100, 4);
        let clean = train_fedavg(
            &parties,
            &HflConfig {
                rounds: 50,
                learning_rate: 0.3,
                ..HflConfig::default()
            },
        )
        .unwrap();
        let noisy = train_fedavg(
            &parties,
            &HflConfig {
                rounds: 50,
                learning_rate: 0.3,
                dp: Some((0.01, 1.0)),
                ..HflConfig::default()
            },
        )
        .unwrap();
        assert!(!noisy.global.approx_eq(&clean.global, 1e-12)); // noise applied
        assert!(noisy.global.approx_eq(&clean.global, 0.5)); // signal survives
    }

    #[test]
    fn validation_errors() {
        let (parties, _, _) = silos(2, 10, 5);
        assert!(train_fedavg(&[], &HflConfig::default()).is_err());
        assert!(train_fedavg(
            &parties,
            &HflConfig {
                rounds: 0,
                ..HflConfig::default()
            }
        )
        .is_err());
        let mut bad = parties.clone();
        bad[1].x = DenseMatrix::zeros(10, 5);
        assert!(train_fedavg(&bad, &HflConfig::default()).is_err());
        let mut bad_y = parties.clone();
        bad_y[0].y = DenseMatrix::zeros(3, 1);
        assert!(train_fedavg(&bad_y, &HflConfig::default()).is_err());
        // Bad DP parameters.
        assert!(train_fedavg(
            &parties,
            &HflConfig {
                dp: Some((1.0, -1.0)),
                ..HflConfig::default()
            }
        )
        .is_err());
        // Degenerate retry/quorum policies are typed errors, not hangs.
        assert!(matches!(
            train_fedavg(
                &parties,
                &HflConfig {
                    retry: RetryPolicy {
                        max_attempts: 0,
                        ..RetryPolicy::default()
                    },
                    ..HflConfig::default()
                }
            ),
            Err(FederatedError::InvalidConfig(_))
        ));
        assert!(matches!(
            train_fedavg(
                &parties,
                &HflConfig {
                    quorum: QuorumPolicy {
                        min_fraction: 1.5,
                        patience: 1
                    },
                    ..HflConfig::default()
                }
            ),
            Err(FederatedError::InvalidConfig(_))
        ));
        // Zero-width features degrade instead of panicking downstream.
        let zero_d = vec![PartySamples {
            name: "empty".into(),
            x: DenseMatrix::zeros(4, 0),
            y: DenseMatrix::zeros(4, 1),
        }];
        assert!(matches!(
            train_fedavg(&zero_d, &HflConfig::default()),
            Err(FederatedError::Misaligned(_))
        ));
    }

    #[test]
    fn comm_stats_grow_with_rounds_and_parties() {
        let (parties, _, _) = silos(4, 10, 6);
        let run = |rounds| {
            train_fedavg(
                &parties,
                &HflConfig {
                    rounds,
                    ..HflConfig::default()
                },
            )
            .unwrap()
            .comm
        };
        let short = run(5);
        let long = run(10);
        assert_eq!(long.total_bytes(), short.total_bytes() * 2);
        assert_eq!(long.messages, short.messages * 2);
        // A reliable run records no fault handling at all.
        assert_eq!(long.fault_events(), 0);
        assert_eq!(long.retries, 0);
        assert_eq!(long.rounds_degraded, 0);
    }

    #[test]
    fn quorum_policy_needed_rounds_up() {
        let q = QuorumPolicy {
            min_fraction: 2.0 / 3.0,
            patience: 1,
        };
        assert_eq!(q.needed(3), 2);
        assert_eq!(q.needed(4), 3);
        assert_eq!(q.needed(6), 4);
        assert_eq!(
            QuorumPolicy {
                min_fraction: 0.0,
                patience: 1
            }
            .needed(5),
            1,
            "at least one responder is always required"
        );
    }

    #[test]
    fn orchestrator_steps_match_wrapper() {
        let (parties, _, _) = silos(3, 20, 7);
        let config = HflConfig {
            rounds: 12,
            learning_rate: 0.2,
            ..HflConfig::default()
        };
        let whole = train_fedavg(&parties, &config).unwrap();
        let mut transport = ReliableTransport;
        let mut orch = FedAvgOrchestrator::new(&parties, &config, &mut transport).unwrap();
        assert_eq!(orch.round(), 0);
        while !orch.is_done() {
            orch.step().unwrap();
        }
        let stepped = orch.finish();
        assert_eq!(
            whole.global.as_slice(),
            stepped.global.as_slice(),
            "step-by-step execution must be bit-identical to the wrapper"
        );
        assert_eq!(whole.loss_history, stepped.loss_history);
        assert_eq!(whole.comm, stepped.comm);
    }

    /// `k` silos of unequal heights over `d` features, labels from a
    /// fixed linear model plus noise.
    fn silos_wide(k: usize, d: usize, seed: u64) -> Vec<PartySamples> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let truth: Vec<f64> = (0..d).map(|c| 1.0 - 0.1 * c as f64).collect();
        (0..k)
            .map(|i| {
                let rows = 17 + 6 * i;
                let x = DenseMatrix::random_uniform(rows, d, -1.0, 1.0, &mut rng);
                let y: Vec<f64> = (0..rows)
                    .map(|r| {
                        (0..d).map(|c| x.get(r, c) * truth[c]).sum::<f64>()
                            + rng.gen_range(-0.01..0.01)
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

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The one-pass round against the three-product reference round
    /// (`reference.rs`), whole runs, bit for bit: feature widths on both
    /// sides of `dot`'s 4-way body, one and several local epochs, DP off
    /// and on, a clean wire, a lossy one (so served attempts outnumber
    /// the updates they carry) and a crash window — each uninterrupted
    /// and killed at a mid round, checkpointed through JSON and resumed.
    #[test]
    fn one_pass_round_equals_three_product_reference() {
        use crate::faults::CrashWindow;
        use crate::{FaultPlan, FaultyTransport};
        const ROUNDS: usize = 12;
        const KILLED_AT: usize = 5;
        let plans = [
            FaultPlan::reliable(21),
            FaultPlan {
                duplicate_prob: 0.15,
                corrupt_prob: 0.1,
                stale_prob: 0.1,
                ..FaultPlan::grid(22, 0.2, 0.1)
            },
            FaultPlan {
                crashes: vec![CrashWindow {
                    party: 1,
                    from_round: 3,
                    until_round: 7,
                }],
                ..FaultPlan::grid(23, 0.1, 0.1)
            },
        ];
        let mut most_served_attempts = 0;
        for d in [3, 32, 33] {
            let parties = silos_wide(3, d, d as u64);
            for local_epochs in [1, 3] {
                for dp in [None, Some((0.01, 1.0))] {
                    for plan in &plans {
                        let config = HflConfig {
                            rounds: ROUNDS,
                            local_epochs,
                            learning_rate: 0.05,
                            dp,
                            quorum: QuorumPolicy {
                                min_fraction: 0.5,
                                patience: 5,
                            },
                            ..HflConfig::default()
                        };
                        let case = format!("d {d}, epochs {local_epochs}, dp {dp:?}, {plan:?}");
                        let transport = || FaultyTransport::new(plan.clone()).unwrap();

                        let mut t = transport();
                        let mut orch = FedAvgOrchestrator::new(&parties, &config, &mut t).unwrap();
                        while !orch.is_done() {
                            orch.step_reference().unwrap();
                        }
                        // Privatizing draws once per coefficient, so under
                        // DP the cursor counts the served attempts.
                        let served_attempts = orch.checkpoint().rng_draws as usize / d;
                        most_served_attempts = most_served_attempts.max(served_attempts);
                        let want = orch.finish();

                        let same_model = |got: &HflResult| {
                            assert_eq!(bits(got.global.as_slice()), bits(want.global.as_slice()));
                            assert_eq!(bits(&got.loss_history), bits(&want.loss_history));
                            assert_eq!(got.comm, want.comm, "{case}");
                        };

                        let mut t = transport();
                        let whole = train_fedavg_with_transport(&parties, &config, &mut t).unwrap();
                        same_model(&whole);
                        assert_eq!(whole.timeline, want.timeline, "{case}");
                        assert_eq!(whole.round_us, want.round_us, "{case}");

                        let mut t = transport();
                        let mut orch = FedAvgOrchestrator::new(&parties, &config, &mut t).unwrap();
                        while orch.round() < KILLED_AT {
                            orch.step().unwrap();
                        }
                        let json = orch.checkpoint().to_json().unwrap();
                        let head = orch.finish();
                        let checkpoint = Checkpoint::from_json(&json).unwrap();
                        let mut t = transport();
                        let mut orch =
                            FedAvgOrchestrator::resume(&parties, &config, &mut t, &checkpoint)
                                .unwrap();
                        while !orch.is_done() {
                            orch.step().unwrap();
                        }
                        let tail = orch.finish();
                        same_model(&tail);
                        // Instrumentation restarts at a resume; the two
                        // incarnations together cover the run.
                        assert_eq!(
                            [head.timeline, tail.timeline].concat(),
                            want.timeline,
                            "{case}"
                        );
                        let mut round_us = head.round_us;
                        round_us.merge(&tail.round_us);
                        assert_eq!(round_us, want.round_us, "{case}");
                    }
                }
            }
        }
        // More served attempts than party-rounds: some exchange served a
        // retry, which the one-pass round answers from its kept update.
        assert!(most_served_attempts > ROUNDS * 3, "{most_served_attempts}");
    }

    #[test]
    fn step_on_a_finished_run_is_refused_and_changes_nothing() {
        let (parties, _, _) = silos(3, 20, 8);
        let config = HflConfig {
            rounds: 4,
            dp: Some((0.01, 1.0)),
            ..HflConfig::default()
        };
        let mut transport = ReliableTransport;
        let mut orch = FedAvgOrchestrator::new(&parties, &config, &mut transport).unwrap();
        while !orch.is_done() {
            orch.step().unwrap();
        }
        let before = orch.checkpoint();
        assert!(matches!(orch.step(), Err(FederatedError::Protocol(_))));
        assert!(matches!(orch.step(), Err(FederatedError::Protocol(_))));
        assert_eq!(orch.checkpoint(), before);
        // The checkpoint of a finished run is still one `resume` takes.
        let mut t2 = ReliableTransport;
        let resumed = FedAvgOrchestrator::resume(&parties, &config, &mut t2, &before).unwrap();
        assert!(resumed.is_done());
        let result = orch.finish();
        assert_eq!(result.loss_history.len(), config.rounds);
        assert_eq!(result.timeline.len(), config.rounds * (parties.len() + 1));
    }

    #[test]
    fn diverged_model_stops_the_run_with_a_typed_error() {
        // A step size far beyond 2/L: the iterates grow geometrically and
        // the squared loss overflows within a few dozen rounds.
        let (parties, _, _) = silos(3, 20, 9);
        let config = HflConfig {
            rounds: 400,
            learning_rate: 1e12,
            ..HflConfig::default()
        };
        let mut transport = ReliableTransport;
        let mut orch = FedAvgOrchestrator::new(&parties, &config, &mut transport).unwrap();
        let error = loop {
            let before = orch.checkpoint();
            match orch.step() {
                Ok(()) => assert!(!orch.is_done(), "the run never diverged"),
                Err(e) => {
                    // Refused before any party was contacted: nothing moved.
                    assert_eq!(orch.checkpoint(), before);
                    break e;
                }
            }
        };
        let round = orch.round();
        assert!(round > 0 && round < 40, "diverged at round {round}");
        assert_eq!(
            error,
            FederatedError::Compute(format!("global loss is not finite at round {round}"))
        );
        // Asking again gives the same answer; the history holds only the
        // finite losses of the rounds that ran.
        assert_eq!(orch.step(), Err(error));
        let result = orch.finish();
        assert_eq!(result.loss_history.len(), round);
        assert!(result.loss_history.iter().all(|l| l.is_finite()));
        assert!(train_fedavg(&parties, &config).is_err());
    }

    /// Golden trajectory of `tests/fault_tolerance.rs`'s lossy grid (the
    /// same three silos, 200 rounds); the constants come from the
    /// hand-written FedAvg loop the shared exchange replaced. Any drift
    /// in a seeded draw, an attempt's accounting, an event or a virtual
    /// millisecond shows up here.
    #[test]
    fn golden_lossy_grid_trajectory() {
        let (parties, _, _) = silos(3, 30, 1);
        let config = HflConfig {
            rounds: 200,
            learning_rate: 0.3,
            ..HflConfig::default()
        };
        let mut lossy = crate::FaultyTransport::new(crate::FaultPlan::grid(9, 0.2, 0.1)).unwrap();
        let run = train_fedavg_with_transport(&parties, &config, &mut lossy).unwrap();
        let golden = CommStats {
            bytes_up: 17_760,
            bytes_down: 22_224,
            messages: 1_666,
            retries: 329,
            drops: 339,
            timeouts: 26,
            stragglers: 132,
            rounds_degraded: 24,
            rounds_skipped: 1,
            ..CommStats::default()
        };
        assert_eq!(run.comm, golden);
        assert_eq!(
            run.loss_history.last().unwrap().to_bits(),
            0x3ef0_7cca_c2ba_51b2
        );
        assert_eq!(run.timeline.len(), 1_458);
        assert_eq!(run.round_us.sum(), 195_483_000);
    }
}
