//! Reference oracle: the FedAvg round as three separate dense products,
//! compiled for tests only.
//!
//! This is the round `hfl.rs` ran before it was made one pass per silo,
//! kept word for word: the union loss through `X·θ` on every party, then
//! — once per served attempt, retries included — a local update that
//! recomputes `X·θ` and takes `Xᵀ·r` for every epoch and privatizes its
//! own result. It has neither of `step`'s guards. The production round
//! must leave the same model, history, accounting, timeline and round
//! durations as this one, bit for bit; `hfl::tests` holds it to that.

use super::*;

impl<T: Transport> FedAvgOrchestrator<'_, T> {
    /// [`Self::step`] by definition.
    pub(crate) fn step_reference(&mut self) -> Result<()> {
        let n_parties = self.parties.len();
        let needed = self.config.quorum.needed(n_parties);

        // Global loss over the union before the round (for the history).
        let total_rows: usize = self.parties.iter().map(|p| p.x.rows()).sum();
        let mut loss = 0.0;
        for p in self.parties {
            let resid = p.x.matmul(&self.global)?.sub(&p.y)?;
            loss += resid.frobenius_norm_sq();
        }
        self.loss_history.push(loss / (2.0 * total_rows as f64));

        // Collect updates from whoever responds in time. The round's
        // virtual duration is its slowest party (parties run in
        // parallel in the modeled deployment).
        let mut responders: Vec<(usize, DenseMatrix)> = Vec::with_capacity(n_parties);
        let mut round_elapsed_ms: u64 = 0;
        for k in 0..n_parties {
            let (theta, elapsed_ms) = self.run_party_round_reference(k)?;
            round_elapsed_ms = round_elapsed_ms.max(elapsed_ms);
            responders.extend(theta.map(|theta| (k, theta)));
        }
        {
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

    /// `run_party_round` by definition: every served attempt retrains.
    fn run_party_round_reference(&mut self, k: usize) -> Result<(Option<DenseMatrix>, u64)> {
        let round = self.round;
        let config = self.config;
        let p = &self.parties[k];
        let bytes = self.d * 8;
        let (global, mechanism, rng) = (&self.global, self.mechanism.as_ref(), &mut self.rng);
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
                let theta = local_update(p, global, config, mechanism, rng)?;
                let env = Envelope::new(round, k, p.x.rows(), theta.as_slice().to_vec());
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
/// global model, optionally privatized before upload.
fn local_update(
    p: &PartySamples,
    global: &DenseMatrix,
    config: &HflConfig,
    mechanism: Option<&LaplaceMechanism>,
    rng: &mut CursorRng,
) -> Result<DenseMatrix> {
    let mut theta = global.clone();
    let n_local = p.x.rows().max(1) as f64;
    for _ in 0..config.local_epochs {
        let resid = p.x.matmul(&theta)?.sub(&p.y)?;
        let grad = p.x.transpose_matmul(&resid)?;
        theta.axpy_assign(-config.learning_rate / n_local, &grad)?;
    }
    if let Some(m) = mechanism {
        m.privatize(theta.as_mut_slice(), rng);
    }
    Ok(theta)
}
