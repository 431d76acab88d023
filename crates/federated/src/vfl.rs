//! Vertical federated linear regression (§V-A).
//!
//! The objective — Yang et al.'s federated linear regression, rewritten
//! by the paper through the DI matrices —
//!
//! ```text
//! min over Θ_A, Θ_B of Σᵢ ‖ Θ_A X_A⁽ⁱ⁾ + Θ_B X_B⁽ⁱ⁾ − Y⁽ⁱ⁾ ‖²,
//!     X_A = I₁D₁M₁ᵀ,  X_B = I₂D₂M₂ᵀ
//! ```
//!
//! is minimized by synchronous gradient descent where each epoch:
//!
//! 1. every party computes its partial prediction `uₖ = Xₖθₖ` locally;
//! 2. the orchestrator aggregates `u = Σₖ uₖ` under the configured
//!    [`PrivacyMode`] (plaintext sum, secret-share reconstruction, or
//!    Paillier ciphertext product);
//! 3. the label holder forms the residual `d = u − y`, which is
//!    broadcast; each party updates `θₖ ← θₖ − α/n (Xₖᵀ d + λ θₖ)`.
//!
//! Because `∂/∂θₖ ‖Σⱼ Xⱼθⱼ − y‖² = Xₖᵀ d`, the trajectory is *exactly*
//! centralized gradient descent on the concatenated features — the
//! equivalence the tests assert. Parties run as threads; the
//! orchestrator never sees raw features, only (protected) partial sums.
//!
//! # Fault tolerance
//!
//! The two request/response exchanges of every epoch — the
//! partial-prediction request and the residual broadcast — each run the
//! crate's one fault-aware exchange (see [`crate::transport`]): the
//! retry / backoff / deadline loop and its [`CommStats`] accounting are
//! the code FedAvg runs, not a copy of it. Crash windows and
//! [`FederatedError::QuorumLost`] speak epochs; on the wire the two
//! phases of epoch `e` are rounds `2e` and `2e + 1`, so their fault
//! draws are independent. Residual application is epoch-tagged so a
//! party re-delivered the same residual (because its ack was lost)
//! applies it exactly once. Unlike FedAvg there is no partial quorum:
//! every party holds a feature slice nothing else can substitute, so a
//! party that stays unreachable past its retry budget fails the run
//! with [`FederatedError::QuorumLost`] (needed = all) instead of
//! hanging.
//!
//! Leakage model: the residual is revealed to all parties each epoch
//! (as in the reference protocol's simplified variants); secret-share
//! routing passes through the orchestrator, standing in for pairwise
//! party channels, and — like Paillier key distribution — is treated as
//! part of the reliable aggregation fabric rather than the faulty wire.
//! Both are documented simplifications of \[35\].

use crate::protocol::{CommStats, PrivacyMode};
use crate::transport::{exchange, Direction, ReliableTransport, Request, RetryPolicy, Transport};
use crate::{FederatedError, Result};
use amalur_crypto::sharing::{additive, FixedPoint};
use amalur_crypto::{Ciphertext, KeyPair};
use amalur_matrix::DenseMatrix;
use rand::SeedableRng;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Configuration for [`train_vfl`].
#[derive(Debug, Clone)]
pub struct VflConfig {
    /// Gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Wire protection for partial predictions.
    pub privacy: PrivacyMode,
    /// RNG seed (share randomness, Paillier key generation).
    pub seed: u64,
    /// Retry/timeout/backoff policy for the per-epoch exchanges.
    pub retry: RetryPolicy,
}

impl Default for VflConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            learning_rate: 0.1,
            l2: 0.0,
            privacy: PrivacyMode::Plaintext,
            seed: 42,
            retry: RetryPolicy::default(),
        }
    }
}

/// The trained federated model.
#[derive(Debug, Clone)]
pub struct VflResult {
    /// Per-party coefficient vectors, in party order.
    pub coefficients: Vec<DenseMatrix>,
    /// Per-epoch squared-residual loss `‖u − y‖²/2n`.
    pub loss_history: Vec<f64>,
    /// Communication and crypto accounting.
    pub comm: CommStats,
}

impl VflResult {
    /// Federated prediction `Σₖ Xₖθₖ` for aligned party features.
    ///
    /// # Errors
    /// Shape mismatch between features and coefficients.
    pub fn predict(&self, features: &[DenseMatrix]) -> Result<DenseMatrix> {
        if features.len() != self.coefficients.len() {
            return Err(FederatedError::Misaligned(format!(
                "{} feature blocks for {} parties",
                features.len(),
                self.coefficients.len()
            )));
        }
        let rows = features.first().map_or(0, DenseMatrix::rows);
        let mut out = DenseMatrix::zeros(rows, 1);
        for (x, theta) in features.iter().zip(&self.coefficients) {
            out.add_assign(&x.matmul(theta)?)?;
        }
        Ok(out)
    }
}

/// Messages orchestrator → party.
enum ToParty {
    /// Compute `uₖ = Xₖθₖ` and reply according to the privacy mode.
    ComputePartial,
    /// (Secret sharing) shares routed to this party, one vector per peer.
    ReceiveShares(Vec<Vec<u64>>),
    /// Epoch-tagged residual broadcast; update local coefficients.
    /// Re-delivery of an already-applied epoch is acked but not
    /// re-applied (retry idempotence).
    ApplyResidual(usize, Vec<f64>),
    /// Training is over; surrender the local model.
    Finish,
}

/// Messages party → orchestrator.
enum FromParty {
    Partial(Vec<f64>),
    PartialCipher(Vec<Ciphertext>),
    /// `shares[peer][row]` — this party's share bundle for every peer.
    ShareBundle(Vec<Vec<u64>>),
    ShareSum(Vec<u64>),
    Ack,
    Theta(Vec<f64>),
}

struct PartyRuntime {
    features: DenseMatrix,
    theta: Vec<f64>,
    learning_rate: f64,
    l2: f64,
    n_parties: usize,
    privacy: PrivacyMode,
    fp: FixedPoint,
    paillier_pk: Option<amalur_crypto::PublicKey>,
    rng: rand::rngs::StdRng,
    /// Shares received from peers this round (summed locally).
    pending_share_sum: Option<Vec<u64>>,
    /// Last epoch whose residual was applied (retry dedup).
    last_applied_epoch: Option<usize>,
    inbox: Receiver<ToParty>,
    outbox: SyncSender<FromParty>,
}

impl PartyRuntime {
    fn run(mut self) -> Result<()> {
        while let Ok(msg) = self.inbox.recv() {
            match msg {
                ToParty::ComputePartial => self.compute_partial()?,
                ToParty::ReceiveShares(from_peers) => {
                    let mut sum = vec![0u64; self.features.rows()];
                    for v in from_peers {
                        let summed = additive::add_shares(&sum, &v)?;
                        sum = summed;
                    }
                    // Fold in own retained share.
                    if let Some(own) = self.pending_share_sum.take() {
                        sum = additive::add_shares(&sum, &own)?;
                    }
                    self.send(FromParty::ShareSum(sum))?;
                }
                ToParty::ApplyResidual(epoch, d) => {
                    if self.last_applied_epoch != Some(epoch) {
                        self.apply_residual(&d)?;
                        self.last_applied_epoch = Some(epoch);
                    }
                    self.send(FromParty::Ack)?;
                }
                ToParty::Finish => {
                    self.send(FromParty::Theta(self.theta.clone()))?;
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn partial(&self) -> Result<Vec<f64>> {
        Ok(self.features.matvec(&self.theta)?)
    }

    fn compute_partial(&mut self) -> Result<()> {
        let u = self.partial()?;
        match self.privacy {
            PrivacyMode::Plaintext => self.send(FromParty::Partial(u)),
            PrivacyMode::SecretShared => {
                // Split every entry into n shares; keep this party's own
                // share locally, emit the rest for routing.
                let mut bundles: Vec<Vec<u64>> = vec![Vec::with_capacity(u.len()); self.n_parties];
                for &v in &u {
                    let enc = self.fp.encode(v)?;
                    let shares = additive::share(enc, self.n_parties, &mut self.rng)?;
                    for (b, s) in bundles.iter_mut().zip(shares) {
                        b.push(s);
                    }
                }
                // Convention: the last bundle is retained locally.
                let own = bundles.pop().ok_or_else(|| {
                    FederatedError::Protocol("share split produced no bundles".into())
                })?;
                self.pending_share_sum = Some(own);
                self.send(FromParty::ShareBundle(bundles))
            }
            PrivacyMode::Paillier { .. } => {
                let pk = self
                    .paillier_pk
                    .as_ref()
                    .ok_or_else(|| FederatedError::Protocol("missing public key".into()))?;
                let cipher: Vec<Ciphertext> = u
                    .iter()
                    .map(|&v| pk.encrypt_f64(v, &mut self.rng))
                    .collect::<std::result::Result<_, _>>()?;
                self.send(FromParty::PartialCipher(cipher))
            }
        }
    }

    fn apply_residual(&mut self, d: &[f64]) -> Result<()> {
        // θₖ ← θₖ − α/n (Xₖᵀ d + λ θₖ)
        let n = self.features.rows() as f64;
        let resid = DenseMatrix::column_vector(d);
        let grad = self.features.transpose_matmul(&resid)?;
        for (t, g) in self.theta.iter_mut().zip(grad.as_slice()) {
            *t -= self.learning_rate / n * (g + self.l2 * *t);
        }
        Ok(())
    }

    fn send(&self, msg: FromParty) -> Result<()> {
        self.outbox
            .send(msg)
            .map_err(|_| FederatedError::Protocol("orchestrator hung up".into()))
    }
}

/// The bytes a reply occupies on the wire.
fn reply_wire_bytes(msg: &FromParty, paillier_modulus_bits: usize) -> usize {
    match msg {
        FromParty::Partial(v) => v.len() * 8,
        FromParty::ShareBundle(bundles) => bundles.iter().map(|b| b.len() * 8).sum(),
        FromParty::PartialCipher(c) => c.len() * paillier_modulus_bits / 4, // |n²| bits
        FromParty::ShareSum(v) => v.len() * 8,
        FromParty::Ack | FromParty::Theta(_) => 0,
    }
}

/// Trains vertical federated linear regression on a perfectly reliable
/// in-process network.
///
/// * `features` — one aligned feature matrix per party (equal row
///   counts; build them with [`crate::align::party_views`]).
/// * `y` — the label column (held by the label party, handed to the
///   orchestrator which acts as its delegate).
///
/// # Errors
/// * [`FederatedError::InvalidConfig`] for zero parties/epochs.
/// * [`FederatedError::Misaligned`] for inconsistent row counts.
/// * [`FederatedError::Compute`] for a non-finite feature cell or label.
pub fn train_vfl(
    features: &[DenseMatrix],
    y: &DenseMatrix,
    config: &VflConfig,
) -> Result<VflResult> {
    let mut transport = ReliableTransport;
    train_vfl_with_transport(features, y, config, &mut transport)
}

/// Trains vertical federated linear regression over the given
/// transport, retrying each per-epoch exchange under the configured
/// [`RetryPolicy`] (see the module docs).
///
/// # Errors
/// Validation errors as in [`train_vfl`], plus
/// [`FederatedError::QuorumLost`] when any party stays unreachable past
/// its retry budget — VFL needs every feature slice, so `needed` always
/// equals the party count.
pub fn train_vfl_with_transport<T: Transport>(
    features: &[DenseMatrix],
    y: &DenseMatrix,
    config: &VflConfig,
    transport: &mut T,
) -> Result<VflResult> {
    if features.is_empty() || config.epochs == 0 {
        return Err(FederatedError::InvalidConfig(
            "need at least one party and one epoch".into(),
        ));
    }
    config.retry.validate()?;
    let n = features[0].rows();
    if n == 0 {
        return Err(FederatedError::Misaligned(
            "no aligned rows (empty join intersection)".into(),
        ));
    }
    for (k, x) in features.iter().enumerate() {
        if x.rows() != n {
            return Err(FederatedError::Misaligned(format!(
                "party {k} has {} rows, expected {n}",
                x.rows()
            )));
        }
    }
    if y.rows() != n || y.cols() != 1 {
        return Err(FederatedError::Misaligned(format!(
            "labels are {}x{}, expected {n}x1",
            y.rows(),
            y.cols()
        )));
    }
    // Plaintext would train a non-finite cell into a NaN model, and the
    // protected modes would fail on it in a party thread.
    let inputs = features
        .iter()
        .enumerate()
        .map(|(k, x)| (format!("party {k} feature"), x));
    for (what, m) in inputs.chain([("label".to_owned(), y)]) {
        if let Some(i) = m.as_slice().iter().position(|v| !v.is_finite()) {
            let (r, c) = (i / m.cols(), i % m.cols());
            let v = m.as_slice()[i];
            return Err(FederatedError::Compute(format!(
                "{what} cell ({r}, {c}) is {v}"
            )));
        }
    }

    let n_parties = features.len();
    let mut seed_rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let keypair = match config.privacy {
        PrivacyMode::Paillier { key_bits } => Some(KeyPair::generate(key_bits, &mut seed_rng)?),
        _ => None,
    };
    let paillier_bits = keypair.as_ref().map_or(0, |kp| kp.public.modulus_bits());
    let fp = FixedPoint::default();

    // Each party thread owns its inbox and its outbox; the orchestrator
    // keeps only its own ends, so a party that stops, finished or
    // failed, hangs up both of its wires, and the orchestrator's next
    // send or recv to it fails instead of blocking. Every exchange is
    // strict request/reply, so each channel holds at most one in-flight
    // message; a party-count capacity keeps the wires bounded
    // (backpressure instead of silent buffering) with ample headroom.
    let mut to_party: Vec<SyncSender<ToParty>> = Vec::with_capacity(n_parties);
    let mut from_rx: Vec<Receiver<FromParty>> = Vec::with_capacity(n_parties);
    let mut handles = Vec::with_capacity(n_parties);
    for (k, x) in features.iter().enumerate() {
        let (tx, inbox) = sync_channel(n_parties);
        let (outbox, rx) = sync_channel(n_parties);
        to_party.push(tx);
        from_rx.push(rx);
        let runtime = PartyRuntime {
            features: x.clone(),
            theta: vec![0.0; x.cols()],
            learning_rate: config.learning_rate,
            l2: config.l2,
            n_parties,
            privacy: config.privacy,
            fp,
            paillier_pk: keypair.as_ref().map(|kp| kp.public.clone()),
            rng: rand::rngs::StdRng::seed_from_u64(config.seed.wrapping_add(k as u64 + 1)),
            pending_share_sum: None,
            last_applied_epoch: None,
            inbox,
            outbox,
        };
        handles.push(std::thread::spawn(move || runtime.run()));
    }

    let mut loss_history = Vec::with_capacity(config.epochs);
    let mut comm = CommStats::default();
    let mut coefficients: Vec<DenseMatrix> = Vec::new();

    let recv = |k: usize| -> Result<FromParty> {
        from_rx[k]
            .recv()
            .map_err(|_| FederatedError::Protocol(format!("party {k} hung up")))
    };
    let send = |k: usize, msg: ToParty| -> Result<()> {
        to_party[k]
            .send(msg)
            .map_err(|_| FederatedError::Protocol(format!("party {k} hung up")))
    };

    let outcome = (|| -> Result<()> {
        for epoch in 0..config.epochs {
            // Phase 1: collect partial predictions, one fault-aware
            // exchange per party. Both phases speak `epoch` to crash
            // windows; on the wire they are rounds `2·epoch` and
            // `2·epoch + 1` so their fault draws are independent.
            let mut replies: Vec<FromParty> = Vec::with_capacity(n_parties);
            for k in 0..n_parties {
                let (got, _) = exchange(
                    transport,
                    &mut comm,
                    &config.retry,
                    config.seed,
                    Request {
                        round: epoch,
                        wire_round: 2 * epoch,
                        party: k,
                        bytes: 0,
                    },
                    &mut || {
                        send(k, ToParty::ComputePartial)?;
                        let msg = recv(k)?;
                        let bytes = reply_wire_bytes(&msg, paillier_bits);
                        Ok((msg, bytes))
                    },
                    &|_| true,
                    &mut |_| {},
                )?;
                match got {
                    Some(msg) => replies.push(msg),
                    None => {
                        return Err(FederatedError::QuorumLost {
                            round: epoch,
                            responded: replies.len(),
                            needed: n_parties,
                        })
                    }
                }
            }

            // Aggregate u = Σ uₖ under the privacy mode.
            let u: Vec<f64> = match config.privacy {
                PrivacyMode::Plaintext => {
                    let mut acc = vec![0.0; n];
                    for msg in replies {
                        match msg {
                            FromParty::Partial(v) => {
                                for (a, b) in acc.iter_mut().zip(v) {
                                    *a += b;
                                }
                            }
                            _ => return Err(FederatedError::Protocol("expected Partial".into())),
                        }
                    }
                    acc
                }
                PrivacyMode::SecretShared => {
                    // Route bundles: bundle[k][peer] destined to `peer`
                    // (peers indexed over the n−1 others in party order).
                    let started = Instant::now();
                    let mut routed: Vec<Vec<Vec<u64>>> = vec![Vec::new(); n_parties];
                    for (k, msg) in replies.into_iter().enumerate() {
                        match msg {
                            FromParty::ShareBundle(bundles) => {
                                let mut peer_iter = (0..n_parties).filter(|&p| p != k);
                                for b in bundles {
                                    let p = peer_iter.next().ok_or_else(|| {
                                        FederatedError::Protocol(format!(
                                            "party {k} sent more than {} share bundles",
                                            n_parties - 1
                                        ))
                                    })?;
                                    routed[p].push(b);
                                }
                            }
                            _ => {
                                return Err(FederatedError::Protocol("expected ShareBundle".into()))
                            }
                        }
                    }
                    for (p, tx) in to_party.iter().enumerate() {
                        let payload = std::mem::take(&mut routed[p]);
                        let bytes = payload.iter().map(|v| v.len() * 8).sum();
                        comm.record_attempt(Direction::Down, bytes);
                        tx.send(ToParty::ReceiveShares(payload))
                            .map_err(|_| FederatedError::Protocol("party hung up".into()))?;
                    }
                    let mut acc = vec![0u64; n];
                    for k in 0..n_parties {
                        match recv(k)? {
                            FromParty::ShareSum(v) => {
                                comm.record_attempt(Direction::Up, v.len() * 8);
                                let summed = additive::add_shares(&acc, &v)?;
                                acc = summed;
                            }
                            _ => return Err(FederatedError::Protocol("expected ShareSum".into())),
                        }
                    }
                    let out = acc.iter().map(|&v| fp.decode(v)).collect();
                    comm.crypto_time += started.elapsed();
                    out
                }
                PrivacyMode::Paillier { .. } => {
                    let started = Instant::now();
                    let kp = keypair
                        .as_ref()
                        .ok_or_else(|| FederatedError::Protocol("missing keypair".into()))?;
                    let mut acc: Option<Vec<Ciphertext>> = None;
                    for msg in replies {
                        match msg {
                            FromParty::PartialCipher(c) => {
                                acc = Some(match acc {
                                    None => c,
                                    Some(prev) => prev
                                        .iter()
                                        .zip(c.iter())
                                        .map(|(a, b)| kp.public.add(a, b))
                                        .collect::<std::result::Result<_, _>>()?,
                                });
                            }
                            _ => {
                                return Err(FederatedError::Protocol(
                                    "expected PartialCipher".into(),
                                ))
                            }
                        }
                    }
                    let cipher_sum = acc.ok_or_else(|| {
                        FederatedError::Protocol("no partial ciphertexts received".into())
                    })?;
                    let out: Vec<f64> = cipher_sum
                        .iter()
                        .map(|c| kp.private.decrypt_f64(c))
                        .collect::<std::result::Result<_, _>>()?;
                    comm.crypto_time += started.elapsed();
                    out
                }
            };

            // Label holder (delegated): residual and loss.
            let residual: Vec<f64> = u
                .iter()
                .zip(y.as_slice())
                .map(|(&ui, &yi)| ui - yi)
                .collect();
            let loss = residual.iter().map(|d| d * d).sum::<f64>() / (2.0 * n as f64);
            loss_history.push(loss);

            // Phase 2: broadcast the epoch-tagged residual and collect
            // acks, again one fault-aware exchange per party.
            let residual_bytes = residual.len() * 8;
            for k in 0..n_parties {
                let (got, _) = exchange(
                    transport,
                    &mut comm,
                    &config.retry,
                    config.seed,
                    Request {
                        round: epoch,
                        wire_round: 2 * epoch + 1,
                        party: k,
                        bytes: residual_bytes,
                    },
                    &mut || {
                        send(k, ToParty::ApplyResidual(epoch, residual.clone()))?;
                        Ok((recv(k)?, 0))
                    },
                    &|_| true,
                    &mut |_| {},
                )?;
                match got {
                    Some(FromParty::Ack) => {}
                    Some(_) => return Err(FederatedError::Protocol("expected Ack".into())),
                    None => {
                        return Err(FederatedError::QuorumLost {
                            round: epoch,
                            responded: k,
                            needed: n_parties,
                        })
                    }
                }
            }
        }

        // Collect models (reliable teardown).
        for tx in &to_party {
            tx.send(ToParty::Finish)
                .map_err(|_| FederatedError::Protocol("party hung up".into()))?;
        }
        for k in 0..n_parties {
            match recv(k)? {
                FromParty::Theta(t) => {
                    coefficients.push(DenseMatrix::column_vector(&t));
                }
                _ => return Err(FederatedError::Protocol("expected Theta".into())),
            }
        }
        Ok(())
    })();

    // Hang up on every party still running, then join them all. A party's
    // own error outranks the orchestrator's: it is why the wire went dead.
    drop((to_party, from_rx));
    let parties: Vec<Result<()>> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Err(FederatedError::Protocol("party panicked".into())))
        })
        .collect();
    parties.into_iter().collect::<Result<()>>()?;
    outcome?;

    Ok(VflResult {
        coefficients,
        loss_history,
        comm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CrashWindow, FaultPlan, FaultyTransport};
    use rand::Rng;

    /// Two-party aligned features with a planted linear target.
    fn setup(n: usize, seed: u64) -> (Vec<DenseMatrix>, DenseMatrix, DenseMatrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let xa = DenseMatrix::random_uniform(n, 2, -1.0, 1.0, &mut rng);
        let xb = DenseMatrix::random_uniform(n, 3, -1.0, 1.0, &mut rng);
        let theta_true = [1.5, -2.0, 0.5, 1.0, -0.75];
        let y: Vec<f64> = (0..n)
            .map(|i| {
                xa.get(i, 0) * theta_true[0]
                    + xa.get(i, 1) * theta_true[1]
                    + xb.get(i, 0) * theta_true[2]
                    + xb.get(i, 1) * theta_true[3]
                    + xb.get(i, 2) * theta_true[4]
                    + rng.gen_range(-0.01..0.01)
            })
            .collect();
        let concat = xa.hstack(&xb).unwrap();
        (vec![xa, xb], DenseMatrix::column_vector(&y), concat)
    }

    /// Reference: centralized GD with the identical update rule.
    fn centralized(x: &DenseMatrix, y: &DenseMatrix, epochs: usize, lr: f64) -> DenseMatrix {
        let n = x.rows() as f64;
        let mut theta = DenseMatrix::zeros(x.cols(), 1);
        for _ in 0..epochs {
            let resid = x.matmul(&theta).unwrap().sub(y).unwrap();
            let grad = x.transpose_matmul(&resid).unwrap();
            theta.axpy_assign(-lr / n, &grad).unwrap();
        }
        theta
    }

    #[test]
    fn plaintext_vfl_equals_centralized_gd() {
        let (features, y, concat) = setup(120, 1);
        let config = VflConfig {
            epochs: 60,
            learning_rate: 0.3,
            ..VflConfig::default()
        };
        let result = train_vfl(&features, &y, &config).unwrap();
        let reference = centralized(&concat, &y, 60, 0.3);
        let federated = result.coefficients[0]
            .clone()
            .vstack(&result.coefficients[1])
            .unwrap();
        assert!(
            federated.approx_eq(&reference, 1e-9),
            "max diff {:?}",
            federated.max_abs_diff(&reference)
        );
        assert!(result.loss_history.first().unwrap() > result.loss_history.last().unwrap());
    }

    #[test]
    fn secret_shared_vfl_matches_within_fixed_point() {
        let (features, y, concat) = setup(60, 2);
        let config = VflConfig {
            epochs: 30,
            learning_rate: 0.3,
            privacy: PrivacyMode::SecretShared,
            ..VflConfig::default()
        };
        let result = train_vfl(&features, &y, &config).unwrap();
        let reference = centralized(&concat, &y, 30, 0.3);
        let federated = result.coefficients[0]
            .clone()
            .vstack(&result.coefficients[1])
            .unwrap();
        assert!(
            federated.approx_eq(&reference, 1e-3),
            "max diff {:?}",
            federated.max_abs_diff(&reference)
        );
        assert!(result.comm.crypto_time > std::time::Duration::ZERO);
        // Secret sharing costs extra traffic vs plaintext.
        let plain = train_vfl(
            &features,
            &y,
            &VflConfig {
                epochs: 30,
                learning_rate: 0.3,
                ..VflConfig::default()
            },
        )
        .unwrap();
        assert!(result.comm.total_bytes() > plain.comm.total_bytes());
    }

    #[test]
    fn paillier_vfl_matches_within_fixed_point() {
        let (features, y, concat) = setup(30, 3);
        let config = VflConfig {
            epochs: 10,
            learning_rate: 0.3,
            privacy: PrivacyMode::Paillier { key_bits: 128 },
            ..VflConfig::default()
        };
        let result = train_vfl(&features, &y, &config).unwrap();
        let reference = centralized(&concat, &y, 10, 0.3);
        let federated = result.coefficients[0]
            .clone()
            .vstack(&result.coefficients[1])
            .unwrap();
        assert!(
            federated.approx_eq(&reference, 1e-3),
            "max diff {:?}",
            federated.max_abs_diff(&reference)
        );
        assert!(result.comm.crypto_time > std::time::Duration::ZERO);
    }

    #[test]
    fn predict_combines_parties() {
        let (features, y, _) = setup(80, 4);
        let config = VflConfig {
            epochs: 200,
            learning_rate: 0.5,
            ..VflConfig::default()
        };
        let result = train_vfl(&features, &y, &config).unwrap();
        let pred = result.predict(&features).unwrap();
        let mse = pred
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.rows() as f64;
        assert!(mse < 0.05, "mse {mse}");
        assert!(result.predict(&features[..1]).is_err());
    }

    #[test]
    fn validation_errors() {
        let (features, y, _) = setup(10, 5);
        assert!(train_vfl(&[], &y, &VflConfig::default()).is_err());
        let zero_epochs = VflConfig {
            epochs: 0,
            ..VflConfig::default()
        };
        assert!(train_vfl(&features, &y, &zero_epochs).is_err());
        let short_y = DenseMatrix::zeros(5, 1);
        assert!(train_vfl(&features, &short_y, &VflConfig::default()).is_err());
        let mut bad = features.clone();
        bad[1] = DenseMatrix::zeros(7, 3);
        assert!(train_vfl(&bad, &y, &VflConfig::default()).is_err());
        let no_retries = VflConfig {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..VflConfig::default()
        };
        assert!(matches!(
            train_vfl(&features, &y, &no_retries),
            Err(FederatedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn three_party_training_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let parts: Vec<DenseMatrix> = (0..3)
            .map(|_| DenseMatrix::random_uniform(50, 2, -1.0, 1.0, &mut rng))
            .collect();
        let y = DenseMatrix::column_vector(
            &(0..50)
                .map(|i| parts[0].get(i, 0) + parts[1].get(i, 1) - parts[2].get(i, 0))
                .collect::<Vec<_>>(),
        );
        for privacy in [PrivacyMode::Plaintext, PrivacyMode::SecretShared] {
            let config = VflConfig {
                epochs: 40,
                learning_rate: 0.4,
                privacy,
                ..VflConfig::default()
            };
            let result = train_vfl(&parts, &y, &config).unwrap();
            assert_eq!(result.coefficients.len(), 3);
            assert!(
                result.loss_history.last().unwrap() < &0.2,
                "{privacy}: loss {:?}",
                result.loss_history.last()
            );
        }
    }

    /// Plaintext partials are recomputed deterministically, so a lossy
    /// run that survives its retries lands on the *same* model as the
    /// reliable run — it only pays retries and retransmitted bytes.
    #[test]
    fn faulty_transport_converges_to_reliable_model() {
        let (features, y, _) = setup(60, 7);
        let config = VflConfig {
            epochs: 25,
            learning_rate: 0.3,
            // VFL has no partial quorum, so give the exchanges enough
            // retry budget to ride out a 20% drop rate.
            retry: RetryPolicy {
                max_attempts: 10,
                deadline_ms: 20_000,
                ..RetryPolicy::default()
            },
            ..VflConfig::default()
        };
        let clean = train_vfl(&features, &y, &config).unwrap();
        let mut lossy = FaultyTransport::new(FaultPlan::grid(11, 0.2, 0.1)).unwrap();
        let faulty = train_vfl_with_transport(&features, &y, &config, &mut lossy).unwrap();
        for (a, b) in clean.coefficients.iter().zip(&faulty.coefficients) {
            assert_eq!(a.as_slice(), b.as_slice(), "trajectories diverged");
        }
        assert!(faulty.comm.retries > 0, "no retries under 20% drop");
        assert!(faulty.comm.drops > 0);
        assert!(faulty.comm.total_bytes() > clean.comm.total_bytes());
        assert_eq!(clean.comm.fault_events(), 0);
    }

    /// A permanently crashed party fails the run fast — VFL has no
    /// partial quorum because every feature slice is irreplaceable.
    #[test]
    fn crashed_party_is_quorum_lost_not_a_hang() {
        let (features, y, _) = setup(30, 8);
        let config = VflConfig {
            epochs: 10,
            learning_rate: 0.3,
            ..VflConfig::default()
        };
        let plan = FaultPlan {
            crashes: vec![CrashWindow::permanent(1, 0)],
            ..FaultPlan::reliable(3)
        };
        let mut transport = FaultyTransport::new(plan).unwrap();
        match train_vfl_with_transport(&features, &y, &config, &mut transport) {
            Err(FederatedError::QuorumLost {
                round,
                responded,
                needed,
            }) => {
                assert_eq!(round, 0);
                assert_eq!(responded, 1);
                assert_eq!(needed, 2);
            }
            other => panic!("expected QuorumLost, got {other:?}"),
        }
    }

    /// A non-finite feature cell or label is a typed error in every
    /// privacy mode, raised before any key or party thread exists.
    #[test]
    fn non_finite_input_is_a_compute_error_in_every_mode() {
        for privacy in [
            PrivacyMode::Plaintext,
            PrivacyMode::SecretShared,
            PrivacyMode::Paillier { key_bits: 128 },
        ] {
            let config = VflConfig {
                epochs: 5,
                privacy,
                ..VflConfig::default()
            };
            let (mut features, y, _) = setup(30, 9);
            features[1].set(4, 2, f64::NAN);
            match train_vfl(&features, &y, &config) {
                Err(FederatedError::Compute(m)) => {
                    assert!(m.contains("party 1 feature cell (4, 2)"), "{m}")
                }
                other => panic!("{privacy:?}: expected Compute, got {other:?}"),
            }
            let (features, mut y, _) = setup(30, 9);
            y.set(7, 0, f64::INFINITY);
            match train_vfl(&features, &y, &config) {
                Err(FederatedError::Compute(m)) => assert!(m.contains("label cell (7, 0)"), "{m}"),
                other => panic!("{privacy:?}: expected Compute, got {other:?}"),
            }
        }
    }

    /// A party that fails ends the run with its own error instead of
    /// hanging it. A finite but large feature cell passes validation and
    /// the first epoch (θ = 0), then makes party 0's next partial overflow
    /// the range fixed-point sharing and Paillier can encode. The run goes
    /// on a helper thread, so a regression fails at the deadline instead
    /// of stalling the suite.
    #[test]
    fn non_finite_feature_fails_the_run_not_a_hang() {
        for privacy in [
            PrivacyMode::SecretShared,
            PrivacyMode::Paillier { key_bits: 128 },
        ] {
            let (mut features, y, _) = setup(30, 9);
            features[0].set(4, 1, 1e9);
            let config = VflConfig {
                epochs: 5,
                learning_rate: 0.3,
                privacy,
                ..VflConfig::default()
            };
            let (tx, rx) = sync_channel(1);
            std::thread::spawn(move || {
                let _ = tx.send(train_vfl(&features, &y, &config));
            });
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(Err(FederatedError::Crypto(m))) => assert!(m.contains("range"), "{m}"),
                Ok(other) => {
                    panic!("{privacy:?}: expected the party's Crypto error, got {other:?}")
                }
                Err(_) => panic!("{privacy:?}: train_vfl did not return within 10 s"),
            }
        }
    }

    /// A crash window means the same thing in both protocols: VFL asks
    /// availability per epoch, not per wire round (two per epoch), so an
    /// outage "from round 6" starts at epoch 6 — not at epoch 3.
    #[test]
    fn crash_window_is_in_epochs() {
        let (features, y, _) = setup(30, 8);
        let config = VflConfig {
            epochs: 10,
            learning_rate: 0.3,
            ..VflConfig::default()
        };
        let plan = FaultPlan {
            crashes: vec![CrashWindow::permanent(1, 6)],
            ..FaultPlan::reliable(3)
        };
        let mut transport = FaultyTransport::new(plan).unwrap();
        match train_vfl_with_transport(&features, &y, &config, &mut transport) {
            Err(FederatedError::QuorumLost {
                round,
                responded,
                needed,
            }) => assert_eq!((round, responded, needed), (6, 1, 2)),
            other => panic!("expected QuorumLost, got {other:?}"),
        }
    }

    /// Golden accounting of `faulty_transport_converges_to_reliable_model`'s
    /// lossy run; the constants come from the VFL-private loop the shared
    /// exchange replaced. Any drift in a seeded draw, an attempt's
    /// accounting or the order of the two phases shows up here.
    #[test]
    fn golden_lossy_accounting() {
        let (features, y, _) = setup(60, 7);
        let config = VflConfig {
            epochs: 25,
            learning_rate: 0.3,
            retry: RetryPolicy {
                max_attempts: 10,
                deadline_ms: 20_000,
                ..RetryPolicy::default()
            },
            ..VflConfig::default()
        };
        let mut lossy = FaultyTransport::new(FaultPlan::grid(11, 0.2, 0.1)).unwrap();
        let run = train_vfl_with_transport(&features, &y, &config, &mut lossy).unwrap();
        let golden = CommStats {
            bytes_up: 28_800,
            bytes_down: 36_000,
            messages: 269,
            retries: 49,
            drops: 49,
            stragglers: 23,
            ..CommStats::default()
        };
        assert_eq!(run.comm, golden);
    }
}
